open Fba_stdx
module Grid = Fba_baselines.Grid_aetoe
module Naive = Fba_baselines.Naive_aetoe
module PK = Fba_baselines.Phase_king_proto
module RBA = Fba_baselines.Randomized_ba
module Grid_sync = Fba_sim.Sync_engine.Make (Grid)
module Naive_sync = Fba_sim.Sync_engine.Make (Naive)
module PK_sync = Fba_sim.Sync_engine.Make (PK)
module RBA_sync = Fba_sim.Sync_engine.Make (RBA)

(* Shared workload: [kn] fraction of all nodes (correct ones) know the
   string "G...", the rest hold junk; random corruption. *)
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
  let g = "the-global-string" in
  let initial = Array.init n (fun i -> Printf.sprintf "junk-%d" i) in
  for i = t to min (t + k) n - 1 do
    initial.(perm.(i)) <- g
  done;
  (corrupted, g, initial)

let count_outcomes outputs corrupted g =
  let ok = ref 0 and bad = ref 0 and und = ref 0 in
  Array.iteri
    (fun i o ->
      if not (Bitset.mem corrupted i) then begin
        match o with
        | Some v when v = g -> incr ok
        | Some _ -> incr bad
        | None -> incr und
      end)
    outputs;
  (!ok, !bad, !und)

(* --- Grid --- *)

let test_grid_correct () =
  let n = 225 in
  let corrupted, g, initial = workload ~n ~byz:0.1 ~kn:0.8 ~seed:2L in
  let cfg = Grid.make_config ~n ~initial:(fun i -> initial.(i)) ~str_bits:136 in
  let res =
    Grid_sync.run ~config:cfg ~n ~seed:2L
      ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted)
      ~mode:`Rushing ~max_rounds:(Grid.total_rounds + 2) ()
  in
  let ok, bad, und = count_outcomes res.Fba_sim.Sync_engine.outputs corrupted g in
  Alcotest.(check int) "no wrong" 0 bad;
  Alcotest.(check int) "no undecided" 0 und;
  Alcotest.(check bool) "all correct decided g" true (ok > 0)

let test_grid_load_balanced () =
  let n = 256 in
  let corrupted, _, initial = workload ~n ~byz:0.1 ~kn:0.8 ~seed:3L in
  let cfg = Grid.make_config ~n ~initial:(fun i -> initial.(i)) ~str_bits:136 in
  let res =
    Grid_sync.run ~config:cfg ~n ~seed:3L
      ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted)
      ~mode:`Rushing ~max_rounds:(Grid.total_rounds + 2) ()
  in
  Alcotest.(check bool) "balanced" true
    (Fba_sim.Metrics.load_imbalance res.Fba_sim.Sync_engine.metrics < 2.0)

let test_grid_bits_scale () =
  (* bits/node ~ 2*sqrt(n)*|s|: quadrupling n should roughly double it. *)
  let run n =
    let corrupted, _, initial = workload ~n ~byz:0.1 ~kn:0.8 ~seed:4L in
    let cfg = Grid.make_config ~n ~initial:(fun i -> initial.(i)) ~str_bits:136 in
    let res =
      Grid_sync.run ~config:cfg ~n ~seed:4L
        ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted)
        ~mode:`Rushing ~max_rounds:(Grid.total_rounds + 2) ()
    in
    Fba_sim.Metrics.amortized_bits res.Fba_sim.Sync_engine.metrics
  in
  let b64 = run 64 and b1024 = run 1024 in
  let ratio = b1024 /. b64 in
  Alcotest.(check bool) "sqrt scaling" true (ratio > 2.5 && ratio < 6.0)

let test_grid_non_square () =
  (* Ragged grids (n not a perfect square) must still work. *)
  let n = 150 in
  let corrupted, g, initial = workload ~n ~byz:0.1 ~kn:0.8 ~seed:5L in
  let cfg = Grid.make_config ~n ~initial:(fun i -> initial.(i)) ~str_bits:136 in
  let res =
    Grid_sync.run ~config:cfg ~n ~seed:5L
      ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted)
      ~mode:`Rushing ~max_rounds:(Grid.total_rounds + 2) ()
  in
  let _, bad, und = count_outcomes res.Fba_sim.Sync_engine.outputs corrupted g in
  Alcotest.(check int) "no wrong" 0 bad;
  Alcotest.(check int) "no undecided" 0 und

(* --- Naive --- *)

let test_naive_correct () =
  let n = 200 in
  let corrupted, g, initial = workload ~n ~byz:0.1 ~kn:0.8 ~seed:6L in
  let cfg = Naive.make_config ~n ~initial:(fun i -> initial.(i)) ~str_bits:136 in
  let res =
    Naive_sync.run ~config:cfg ~n ~seed:6L
      ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted)
      ~mode:`Rushing ~max_rounds:(Naive.total_rounds + 2) ()
  in
  let _, bad, und = count_outcomes res.Fba_sim.Sync_engine.outputs corrupted g in
  Alcotest.(check int) "no wrong" 0 bad;
  Alcotest.(check int) "no undecided" 0 und

let test_naive_flood_amplification () =
  let n = 200 in
  let run flood =
    let corrupted, _, initial = workload ~n ~byz:0.15 ~kn:0.8 ~seed:7L in
    let cfg = Naive.make_config ~n ~initial:(fun i -> initial.(i)) ~str_bits:136 in
    let adversary =
      if flood then Naive.flood_adversary cfg ~corrupted
      else Fba_sim.Sync_engine.null_adversary ~corrupted
    in
    let res =
      Naive_sync.run ~config:cfg ~n ~seed:7L ~adversary ~mode:`Rushing
        ~max_rounds:(Naive.total_rounds + 2) ()
    in
    Fba_sim.Metrics.amortized_bits res.Fba_sim.Sync_engine.metrics
  in
  let quiet = run false and flooded = run true in
  (* 30 Byzantine queriers force ~30 extra replies of |s| bits per
     correct node — a Theta(t) additive hit on everyone. *)
  Alcotest.(check bool) "flooding amplifies naive load" true (flooded > 1.5 *. quiet)

let test_naive_tiny () =
  (* Below n = 22 the 4⌈log₂ n⌉ + 1 queries outnumber a node's peers;
     each node then queries all n - 1 of them. *)
  List.iter
    (fun n ->
      let cfg = Naive.make_config ~n ~initial:(fun _ -> "v") ~str_bits:8 in
      let res =
        Naive_sync.run ~config:cfg ~n ~seed:1L
          ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted:(Bitset.create n))
          ~mode:`Rushing ~max_rounds:(Naive.total_rounds + 2) ()
      in
      Array.iteri
        (fun i o -> Alcotest.(check (option string)) (Printf.sprintf "n=%d node %d" n i) (Some "v") o)
        res.Fba_sim.Sync_engine.outputs)
    [ 2; 16; 21 ]

let test_grid_tiny () =
  (* n = 2: one row of two; must still terminate and agree. *)
  let cfg = Grid.make_config ~n:2 ~initial:(fun _ -> "v") ~str_bits:8 in
  let res =
    Grid_sync.run ~config:cfg ~n:2 ~seed:1L
      ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted:(Bitset.create 2))
      ~mode:`Rushing ~max_rounds:10 ()
  in
  Alcotest.(check (option string)) "node 0" (Some "v") res.Fba_sim.Sync_engine.outputs.(0);
  Alcotest.(check (option string)) "node 1" (Some "v") res.Fba_sim.Sync_engine.outputs.(1)

(* --- KS09-style random push --- *)

module Ks09 = Fba_baselines.Ks09_aetoe
module Ks09_sync = Fba_sim.Sync_engine.Make (Ks09)

let test_ks09_correct () =
  let n = 200 in
  let corrupted, g, initial = workload ~n ~byz:0.1 ~kn:0.8 ~seed:20L in
  let cfg = Ks09.make_config ~n ~initial:(fun i -> initial.(i)) ~str_bits:136 in
  let res =
    Ks09_sync.run ~config:cfg ~n ~seed:20L
      ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted)
      ~mode:`Rushing ~max_rounds:(Ks09.total_rounds + 2) ()
  in
  let _, bad, und = count_outcomes res.Fba_sim.Sync_engine.outputs corrupted g in
  Alcotest.(check int) "no wrong" 0 bad;
  Alcotest.(check int) "no undecided" 0 und

let test_ks09_receive_hotspot () =
  let n = 200 in
  let run flood =
    let corrupted, _, initial = workload ~n ~byz:0.15 ~kn:0.8 ~seed:21L in
    let cfg = Ks09.make_config ~n ~initial:(fun i -> initial.(i)) ~str_bits:136 in
    let adversary =
      if flood then Ks09.flood_adversary ~victims:2 cfg ~corrupted
      else Fba_sim.Sync_engine.null_adversary ~corrupted
    in
    let res =
      Ks09_sync.run ~config:cfg ~n ~seed:21L ~adversary ~mode:`Rushing
        ~max_rounds:(Ks09.total_rounds + 2) ()
    in
    Fba_sim.Metrics.max_recv_bits_correct res.Fba_sim.Sync_engine.metrics
  in
  let quiet = run false and flooded = run true in
  (* All Byzantine pushes land on 2 victims: their inboxes blow up. *)
  Alcotest.(check bool) "receive hot spot under flooding" true (flooded > 4 * quiet)

(* --- Phase-king standalone --- *)

let test_pk_proto_agreement () =
  let n = 40 in
  let corrupted, _, initial = workload ~n ~byz:0.2 ~kn:0.7 ~seed:8L in
  let cfg = PK.make_config ~n ~initial:(fun i -> initial.(i)) ~str_bits:136 in
  let res =
    PK_sync.run ~config:cfg ~n ~seed:8L
      ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted)
      ~mode:`Rushing ~max_rounds:(PK.total_rounds cfg) ()
  in
  let outs = ref [] in
  Array.iteri
    (fun i o -> if not (Bitset.mem corrupted i) then outs := (i, o) :: !outs)
    res.Fba_sim.Sync_engine.outputs;
  (match !outs with
  | (_, first) :: rest ->
    Alcotest.(check bool) "decided" true (first <> None);
    List.iter (fun (i, o) -> Alcotest.(check bool) (Printf.sprintf "node %d agrees" i) true (o = first)) rest
  | [] -> Alcotest.fail "no correct nodes")

let test_pk_proto_validity () =
  (* All correct nodes share the input: the decision must be it. *)
  let n = 31 in
  let corrupted = Bitset.of_list n [ 1; 11; 21 ] in
  let cfg = PK.make_config ~n ~initial:(fun _ -> "unanimous") ~str_bits:80 in
  let res =
    PK_sync.run ~config:cfg ~n ~seed:9L
      ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted)
      ~mode:`Rushing ~max_rounds:(PK.total_rounds cfg) ()
  in
  Array.iteri
    (fun i o ->
      if not (Bitset.mem corrupted i) then
        Alcotest.(check (option string)) (Printf.sprintf "node %d validity" i)
          (Some "unanimous") o)
    res.Fba_sim.Sync_engine.outputs

(* --- Randomized BA --- *)

let run_rba ~coin ~n ~inputs ~byz_ids ~attack ~seed =
  let corrupted = Bitset.of_list n byz_ids in
  let t_assumed = max 1 ((n / 6) - 1) in
  let cfg = RBA.make_config ~n ~t_assumed ~coin ~inputs () in
  let adversary =
    if attack then RBA.split_vote_adversary cfg ~corrupted
    else Fba_sim.Sync_engine.null_adversary ~corrupted
  in
  RBA_sync.run ~config:cfg ~n ~seed ~adversary ~mode:`Rushing
    ~max_rounds:(RBA.max_engine_rounds cfg) ()

let check_binary_agreement res corrupted n =
  let v = ref None and ok = ref true in
  Array.iteri
    (fun i o ->
      if not (Bitset.mem corrupted i) then begin
        (match o with None -> ok := false | Some _ -> ());
        match (!v, o) with
        | None, Some x -> v := Some x
        | Some x, Some y when x <> y -> ok := false
        | _ -> ()
      end)
    res.Fba_sim.Sync_engine.outputs;
  ignore n;
  !ok

let test_rba_validity () =
  (* Unanimous input 1 must decide "1" in the first logical round. *)
  let n = 60 in
  let res = run_rba ~coin:`Local ~n ~inputs:(fun _ -> true) ~byz_ids:[ 3; 17 ] ~attack:false ~seed:10L in
  let corrupted = Bitset.of_list n [ 3; 17 ] in
  Array.iteri
    (fun i o ->
      if not (Bitset.mem corrupted i) then
        Alcotest.(check (option string)) "validity" (Some "1") o)
    res.Fba_sim.Sync_engine.outputs;
  Alcotest.(check bool) "fast" true (Fba_sim.Metrics.rounds res.Fba_sim.Sync_engine.metrics <= 8)

let test_rba_agreement_mixed_local () =
  let n = 60 in
  let byz = [ 0; 13; 29 ] in
  let res =
    run_rba ~coin:`Local ~n ~inputs:(fun i -> i mod 2 = 0) ~byz_ids:byz ~attack:true ~seed:11L
  in
  Alcotest.(check bool) "agreement" true (check_binary_agreement res (Bitset.of_list n byz) n)

let test_rba_agreement_common_coin () =
  let n = 60 in
  let byz = [ 0; 13; 29 ] in
  let res =
    run_rba ~coin:(`Common 5L) ~n ~inputs:(fun i -> i mod 2 = 0) ~byz_ids:byz ~attack:true
      ~seed:12L
  in
  Alcotest.(check bool) "agreement" true (check_binary_agreement res (Bitset.of_list n byz) n);
  Alcotest.(check bool) "all decided" true res.Fba_sim.Sync_engine.all_decided

let test_rba_config_validation () =
  Alcotest.check_raises "resilience bound"
    (Invalid_argument "Randomized_ba.make_config: need 5*t_assumed < n") (fun () ->
      ignore (RBA.make_config ~n:10 ~t_assumed:2 ~coin:`Local ~inputs:(fun _ -> true) ()))

let suites =
  [
    ( "baselines.grid",
      [
        Alcotest.test_case "correctness" `Quick test_grid_correct;
        Alcotest.test_case "load-balanced" `Quick test_grid_load_balanced;
        Alcotest.test_case "sqrt bits scaling" `Quick test_grid_bits_scale;
        Alcotest.test_case "non-square grid" `Quick test_grid_non_square;
        Alcotest.test_case "tiny grid" `Quick test_grid_tiny;
      ] );
    ( "baselines.naive",
      [
        Alcotest.test_case "correctness" `Quick test_naive_correct;
        Alcotest.test_case "flood amplification" `Quick test_naive_flood_amplification;
        Alcotest.test_case "tiny n" `Quick test_naive_tiny;
      ] );
    ( "baselines.ks09",
      [
        Alcotest.test_case "correctness" `Quick test_ks09_correct;
        Alcotest.test_case "receive hotspot under flooding" `Quick test_ks09_receive_hotspot;
      ] );
    ( "baselines.phase_king",
      [
        Alcotest.test_case "agreement" `Quick test_pk_proto_agreement;
        Alcotest.test_case "validity" `Quick test_pk_proto_validity;
      ] );
    ( "baselines.randomized_ba",
      [
        Alcotest.test_case "validity" `Quick test_rba_validity;
        Alcotest.test_case "agreement (Ben-Or, split attack)" `Quick test_rba_agreement_mixed_local;
        Alcotest.test_case "agreement (common coin, split attack)" `Quick
          test_rba_agreement_common_coin;
        Alcotest.test_case "config validation" `Quick test_rba_config_validation;
      ] );
  ]
