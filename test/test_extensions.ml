open Fba_stdx
module Relay = Fba_extensions.Committee_relay
module Engine = Fba_sim.Sync_engine.Make (Relay)

let workload ~n ~byz ~kn ~seed =
  let rng = Prng.create seed in
  let perm = Array.init n (fun i -> i) in
  Prng.shuffle rng perm;
  let t = int_of_float (byz *. float_of_int n) in
  let corrupted = Bitset.create n in
  for i = 0 to t - 1 do
    Bitset.add corrupted perm.(i)
  done;
  let k = int_of_float (ceil (kn *. float_of_int n)) in
  let g = "relay-gstring" in
  let initial = Array.init n (fun i -> Printf.sprintf "junk-%d" i) in
  for i = t to min (t + k) n - 1 do
    initial.(perm.(i)) <- g
  done;
  (corrupted, g, initial)

let run ~n ~byz ~kn ~seed =
  let corrupted, g, initial = workload ~n ~byz ~kn ~seed in
  let cfg =
    Relay.make_config ~n ~seed ~initial:(fun i -> initial.(i)) ~str_bits:104 ()
  in
  let res =
    Engine.run ~config:cfg ~n ~seed
      ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted)
      ~mode:`Rushing ~max_rounds:(Relay.total_rounds + 2) ()
  in
  (cfg, corrupted, g, res)

let test_relay_correct () =
  let _, corrupted, g, res = run ~n:256 ~byz:0.1 ~kn:0.8 ~seed:3L in
  Array.iteri
    (fun i o ->
      if not (Bitset.mem corrupted i) then
        Alcotest.(check (option string)) (Printf.sprintf "node %d" i) (Some g) o)
    res.Fba_sim.Sync_engine.outputs

let test_relay_load_profile () =
  let cfg, corrupted, _, res = run ~n:256 ~byz:0.1 ~kn:0.8 ~seed:4L in
  let m = res.Fba_sim.Sync_engine.metrics in
  let committee = Relay.committee cfg in
  let in_committee id = Array.exists (fun v -> v = id) committee in
  (* Non-members send nothing; members bear the Θ~(√n) load. *)
  let max_outside = ref 0 and max_member = ref 0 in
  for i = 0 to 255 do
    if not (Bitset.mem corrupted i) then begin
      let sent = Fba_sim.Metrics.sent_bits_of m i in
      if in_committee i then max_member := max !max_member sent
      else max_outside := max !max_outside sent
    end
  done;
  Alcotest.(check int) "non-members are silent" 0 !max_outside;
  Alcotest.(check bool) "members bear bounded load" true (!max_member > 0);
  (* Member load is O~(sqrt n): committee exchange (~2 sqrt n strings)
     plus ~k*n/|C| deliveries — comfortably under n strings. *)
  Alcotest.(check bool) "member load well below linear" true (!max_member < 256 * 104)

let test_relay_amortized_sublinear () =
  (* Amortized bits/node should be ~k*|s| + committee overhead, far
     below the grid baseline's sqrt(n)*|s|... at least sublinear. *)
  let _, _, _, res = run ~n:1024 ~byz:0.1 ~kn:0.8 ~seed:5L in
  let bits = Fba_sim.Metrics.amortized_bits res.Fba_sim.Sync_engine.metrics in
  (* k = 21 relays + committee exchange amortized: a few thousand bits. *)
  Alcotest.(check bool) "amortized O~(1)-ish" true (bits < 30_000.0)

let test_relay_committee_deterministic () =
  let mk () = Relay.make_config ~n:128 ~seed:9L ~initial:(fun _ -> "x") ~str_bits:8 () in
  Alcotest.(check (array int)) "same seed, same committee" (Relay.committee (mk ()))
    (Relay.committee (mk ()))

let test_relay_validation () =
  Alcotest.check_raises "n too small" (Invalid_argument "Committee_relay.make_config: n < 2")
    (fun () -> ignore (Relay.make_config ~n:1 ~seed:1L ~initial:(fun _ -> "x") ~str_bits:8 ()))

let suites =
  [
    ( "extensions.committee_relay",
      [
        Alcotest.test_case "correctness" `Quick test_relay_correct;
        Alcotest.test_case "load profile" `Quick test_relay_load_profile;
        Alcotest.test_case "amortized cost" `Quick test_relay_amortized_sublinear;
        Alcotest.test_case "deterministic committee" `Quick test_relay_committee_deterministic;
        Alcotest.test_case "validation" `Quick test_relay_validation;
      ] );
  ]
