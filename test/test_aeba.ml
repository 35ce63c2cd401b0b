open Fba_stdx
open Fba_aeba

(* --- Phase_king as a pure machine, driven by a tiny synchronous
   simulator that also lets us script Byzantine members. --- *)

(* Run phase-king among [members]; [byz] maps a Byzantine id to a
   function from (round, honest messages so far) to its sends. Returns
   the final values of the honest members. *)
let run_phase_king ~members ~byz ~initial =
  let honest = List.filter (fun m -> not (List.mem_assoc m byz)) (Array.to_list members) in
  let machines =
    List.map (fun m -> (m, Phase_king.create ~members ~me:m ~initial:(initial m))) honest
  in
  let rounds = Phase_king.rounds_needed (snd (List.hd machines)) in
  (* mailbox: messages to deliver next round: (dst, src, msg) *)
  let mailbox = ref [] in
  for round = 0 to rounds do
    (* deliver messages sent last round *)
    let deliveries = !mailbox in
    mailbox := [];
    List.iter
      (fun (dst, src, m) ->
        match List.assoc_opt dst machines with
        | Some machine -> Phase_king.on_receive machine ~round ~src m
        | None -> ())
      deliveries;
    (* honest sends *)
    List.iter
      (fun (me, machine) ->
        List.iter
          (fun (dst, m) -> mailbox := (dst, me, m) :: !mailbox)
          (Phase_king.on_round machine ~round))
      machines;
    (* byzantine sends *)
    List.iter
      (fun (b, strategy) ->
        List.iter (fun (dst, m) -> mailbox := (dst, b, m) :: !mailbox) (strategy round))
      byz
  done;
  List.map (fun (m, machine) -> (m, Phase_king.current machine)) machines

let all_same = function
  | [] -> true
  | (_, v) :: rest -> List.for_all (fun (_, v') -> v' = v) rest

let test_pk_validity_no_faults () =
  let members = Array.init 7 (fun i -> i) in
  let outs = run_phase_king ~members ~byz:[] ~initial:(fun _ -> "v") in
  Alcotest.(check bool) "agreement" true (all_same outs);
  List.iter (fun (_, v) -> Alcotest.(check string) "validity" "v" v) outs

let test_pk_agreement_mixed_inputs () =
  let members = Array.init 7 (fun i -> i) in
  let outs =
    run_phase_king ~members ~byz:[] ~initial:(fun i -> if i < 3 then "a" else "b")
  in
  Alcotest.(check bool) "agreement on something" true (all_same outs)

let test_pk_silent_byzantine () =
  let members = Array.init 10 (fun i -> i) in
  (* t = 3 tolerated; 3 silent byz. *)
  let byz = [ (0, fun _ -> []); (4, (fun _ -> [])); (8, fun _ -> []) ] in
  let outs = run_phase_king ~members ~byz ~initial:(fun _ -> "v") in
  Alcotest.(check bool) "agreement" true (all_same outs);
  List.iter (fun (_, v) -> Alcotest.(check string) "validity kept" "v" v) outs

let test_pk_equivocating_byzantine () =
  let members = Array.init 10 (fun i -> i) in
  (* A Byzantine member (also an early king) equivocates values. *)
  let equivocate _b round =
    if round mod 4 = 0 then
      Array.to_list
        (Array.map (fun m -> (m, Phase_king.Value (if m mod 2 = 0 then "x" else "y"))) members)
    else if round mod 4 = 2 then
      Array.to_list (Array.map (fun m -> (m, Phase_king.King (Printf.sprintf "k%d" m))) members)
    else []
  in
  let byz = [ (0, equivocate 0); (5, equivocate 5) ] in
  let outs =
    run_phase_king ~members ~byz ~initial:(fun i -> if i < 5 then "a" else "b")
  in
  Alcotest.(check bool) "agreement despite equivocation" true (all_same outs)

let test_pk_validity_under_equivocation () =
  let members = Array.init 10 (fun i -> i) in
  let flood _b round =
    if round mod 4 = 0 then Array.to_list (Array.map (fun m -> (m, Phase_king.Value "evil")) members)
    else if round mod 4 = 2 then
      Array.to_list (Array.map (fun m -> (m, Phase_king.King "evil")) members)
    else []
  in
  let byz = [ (1, flood 1); (6, flood 6); (9, flood 9) ] in
  (* All honest agree on "v" initially: validity must hold (n - t = 7 >= keep threshold). *)
  let outs = run_phase_king ~members ~byz ~initial:(fun _ -> "v") in
  List.iter (fun (_, v) -> Alcotest.(check string) "validity under attack" "v" v) outs

let test_pk_rounds_needed () =
  let members = Array.init 10 (fun i -> i) in
  let m = Phase_king.create ~members ~me:0 ~initial:"v" in
  (* t = 3, phases = 4, rounds = 16. *)
  Alcotest.(check int) "rounds" 16 (Phase_king.rounds_needed m);
  Alcotest.(check bool) "not finished early" false (Phase_king.finished m ~round:15);
  Alcotest.(check bool) "finished at the end" true (Phase_king.finished m ~round:16)

let test_pk_validation () =
  Alcotest.check_raises "empty members" (Invalid_argument "Phase_king.create: empty member set")
    (fun () -> ignore (Phase_king.create ~members:[||] ~me:0 ~initial:"v"));
  Alcotest.check_raises "me not a member" (Invalid_argument "Phase_king.create: me not a member")
    (fun () -> ignore (Phase_king.create ~members:[| 1; 2 |] ~me:0 ~initial:"v"))

(* --- Committee_tree --- *)

let test_tree_structure () =
  let t = Committee_tree.build ~n:256 ~seed:3L ~group_size:16 ~committee_size:16 in
  Alcotest.(check int) "n" 256 (Committee_tree.n t);
  Alcotest.(check int) "committee size" 16 (Committee_tree.committee_size t);
  Alcotest.(check int) "groups are a power of two" (1 lsl Committee_tree.levels t)
    (Committee_tree.group_count t);
  (* Groups partition the nodes. *)
  let seen = Array.make 256 0 in
  for g = 0 to Committee_tree.group_count t - 1 do
    Array.iter (fun id -> seen.(id) <- seen.(id) + 1) (Committee_tree.group_members t g)
  done;
  Array.iteri
    (fun id c -> Alcotest.(check int) (Printf.sprintf "node %d in one group" id) 1 c)
    seen

let test_tree_group_of () =
  let t = Committee_tree.build ~n:100 ~seed:3L ~group_size:10 ~committee_size:8 in
  for id = 0 to 99 do
    let g = Committee_tree.group_of t id in
    Alcotest.(check bool)
      (Printf.sprintf "node %d listed in its group" id)
      true
      (Array.exists (fun v -> v = id) (Committee_tree.group_members t g))
  done

let test_tree_memberships () =
  let t = Committee_tree.build ~n:128 ~seed:3L ~group_size:16 ~committee_size:12 in
  (* memberships must agree with committee listings, both directions. *)
  for level = 0 to Committee_tree.levels t do
    for index = 0 to (1 lsl level) - 1 do
      Array.iter
        (fun id ->
          Alcotest.(check bool) "listed membership" true
            (List.mem (level, index) (Committee_tree.memberships t id)))
        (Committee_tree.committee t ~level ~index)
    done
  done;
  for id = 0 to 127 do
    List.iter
      (fun (level, index) ->
        Alcotest.(check bool) "membership is real" true
          (Committee_tree.is_member t ~level ~index id))
      (Committee_tree.memberships t id)
  done

let test_tree_parent_children () =
  let t = Committee_tree.build ~n:64 ~seed:3L ~group_size:8 ~committee_size:8 in
  Alcotest.(check (option (pair int int))) "root has no parent" None
    (Committee_tree.parent t ~level:0 ~index:0);
  (match Committee_tree.children t ~level:0 ~index:0 with
  | [ (1, 0); (1, 1) ] -> ()
  | _ -> Alcotest.fail "root children");
  let leaf = Committee_tree.levels t in
  Alcotest.(check (list (pair int int))) "leaves have no children" []
    (Committee_tree.children t ~level:leaf ~index:0);
  Alcotest.(check (option (pair int int))) "child's parent" (Some (0, 0))
    (Committee_tree.parent t ~level:1 ~index:1)

let test_tree_determinism () =
  let t1 = Committee_tree.build ~n:64 ~seed:3L ~group_size:8 ~committee_size:8 in
  let t2 = Committee_tree.build ~n:64 ~seed:3L ~group_size:8 ~committee_size:8 in
  Alcotest.(check (array int)) "same seed same root" (Committee_tree.root t1)
    (Committee_tree.root t2)

let test_tree_edge_shapes () =
  (* group_size > n collapses to a single group; committee clamps to n. *)
  let t = Committee_tree.build ~n:5 ~seed:1L ~group_size:50 ~committee_size:50 in
  Alcotest.(check int) "one group" 1 (Committee_tree.group_count t);
  Alcotest.(check int) "levels 0" 0 (Committee_tree.levels t);
  Alcotest.(check int) "committee clamped" 5 (Committee_tree.committee_size t);
  Alcotest.(check int) "all in group 0" 5 (Array.length (Committee_tree.group_members t 0));
  (* n = 1: trivial but must not crash. *)
  let t1 = Committee_tree.build ~n:1 ~seed:1L ~group_size:1 ~committee_size:1 in
  Alcotest.(check (array int)) "singleton root" [| 0 |] (Committee_tree.root t1)

(* --- Aeba end-to-end --- *)

module Engine = Fba_sim.Sync_engine.Make (Aeba)

let run_aeba ~n ~byz_frac ~seed =
  let cfg = Aeba.make_config ~n ~seed ~byzantine_fraction:byz_frac () in
  let rng = Prng.create (Int64.add seed 17L) in
  let t = int_of_float (byz_frac *. float_of_int n) in
  let corrupted = Bitset.of_array n (Prng.sample_without_replacement rng ~n ~k:t) in
  let res =
    Engine.run ~config:cfg ~n ~seed
      ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted)
      ~mode:`Rushing
      ~max_rounds:(Aeba.total_rounds cfg + 2) ()
  in
  (cfg, corrupted, res)

let test_aeba_agreement () =
  let n = 128 in
  let _, corrupted, res = run_aeba ~n ~byz_frac:0.1 ~seed:21L in
  let mask = Array.init n (fun i -> not (Bitset.mem corrupted i)) in
  let reference =
    Plurality.of_outputs res.Fba_sim.Sync_engine.outputs ~counted:(Array.get mask)
  in
  Alcotest.(check bool) "has a reference" true (reference <> None);
  let agree = ref 0 and correct = ref 0 in
  Array.iteri
    (fun i o ->
      if mask.(i) then begin
        incr correct;
        Alcotest.(check bool) "every correct node outputs" true (o <> None);
        if o = reference then incr agree
      end)
    res.Fba_sim.Sync_engine.outputs;
  (* Almost-everywhere: at least 90% of correct nodes agree. *)
  Alcotest.(check bool) "a.e. agreement" true
    (float_of_int !agree >= 0.9 *. float_of_int !correct)

let test_aeba_rounds_budget () =
  let n = 128 in
  let cfg, _, res = run_aeba ~n ~byz_frac:0.1 ~seed:22L in
  Alcotest.(check bool) "finishes on schedule" true
    (Fba_sim.Metrics.rounds res.Fba_sim.Sync_engine.metrics <= Aeba.total_rounds cfg)

let test_aeba_gstring_length () =
  let n = 64 in
  let cfg, corrupted, res = run_aeba ~n ~byz_frac:0.1 ~seed:23L in
  let mask = Array.init n (fun i -> not (Bitset.mem corrupted i)) in
  match Plurality.of_outputs res.Fba_sim.Sync_engine.outputs ~counted:(Array.get mask) with
  | None -> Alcotest.fail "no reference"
  | Some g ->
    Alcotest.(check int) "gstring length matches config" (Aeba.config_gstring_bits cfg)
      (8 * String.length g)

let test_aeba_no_faults_unanimous () =
  let n = 64 in
  let cfg = Aeba.make_config ~n ~seed:31L ~byzantine_fraction:0.1 () in
  let res =
    Engine.run ~config:cfg ~n ~seed:31L
      ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted:(Bitset.create n))
      ~mode:`Rushing
      ~max_rounds:(Aeba.total_rounds cfg + 2) ()
  in
  let first = res.Fba_sim.Sync_engine.outputs.(0) in
  Alcotest.(check bool) "output exists" true (first <> None);
  Array.iteri
    (fun i o -> Alcotest.(check bool) (Printf.sprintf "node %d agrees" i) true (o = first))
    res.Fba_sim.Sync_engine.outputs

let test_aeba_config_validation () =
  Alcotest.check_raises "n too small" (Invalid_argument "Aeba.make_config: n < 2") (fun () ->
      ignore (Aeba.make_config ~n:1 ~seed:1L ()));
  let cfg = Aeba.make_config ~n:64 ~seed:1L ~byzantine_fraction:0.2 () in
  let cfg2 = Aeba.make_config ~n:64 ~seed:1L ~byzantine_fraction:0.1 () in
  let m tree = Committee_tree.committee_size tree in
  Alcotest.(check bool) "higher byz -> larger committees" true
    (m (Aeba.config_tree cfg) >= m (Aeba.config_tree cfg2))

(* Phase-king inside each committee needs n > 3t, so a fraction of
   1/3 or more is refused before any committee is sized. *)
let test_aeba_byzantine_refused () =
  List.iter
    (fun byz ->
      Alcotest.check_raises
        (Printf.sprintf "byzantine_fraction %g" byz)
        (Invalid_argument "Aeba.make_config: byzantine_fraction must be in [0, 1/3)")
        (fun () -> ignore (Aeba.make_config ~n:64 ~seed:1L ~byzantine_fraction:byz ())))
    [ -0.1; 1.0 /. 3.0; 0.34; 0.5 ];
  ignore (Aeba.make_config ~n:64 ~seed:1L ~byzantine_fraction:0.0 ())

(* --- The asynchrony boundary (paper, Section 5) --- *)

module Async_engine = Fba_sim.Async_engine.Make (Aeba)

let run_aeba_async ~n ~seed ~delay_fn ~max_delay =
  let cfg = Aeba.make_config ~n ~seed ~byzantine_fraction:0.1 () in
  let adversary =
    {
      (Fba_sim.Async_engine.null_adversary ~corrupted:(Bitset.create n)) with
      Fba_sim.Async_engine.max_delay;
      delay = delay_fn;
    }
  in
  let res =
    Async_engine.run ~config:cfg ~n ~seed ~adversary
      ~max_time:(4 * (Aeba.total_rounds cfg + 2) * max_delay) ()
  in
  let mask = Array.init n (fun _ -> true) in
  match Plurality.of_outputs res.Fba_sim.Async_engine.outputs ~counted:(Array.get mask) with
  | None -> (0.0, "")
  | Some r ->
    let agree = ref 0 in
    Array.iter (fun o -> if o = Some r then incr agree) res.Fba_sim.Async_engine.outputs;
    (float_of_int !agree /. float_of_int n, r)

let is_all_zero s = String.for_all (fun c -> c = '\000') s

let test_aeba_async_boundary () =
  (* With unit delays the asynchronous engine reduces to lock-step:
     full agreement on a string with actual entropy. *)
  let frac1, g1 = run_aeba_async ~n:64 ~seed:51L ~delay_fn:(fun ~time:_ ~src:_ ~dst:_ _ -> 1) ~max_delay:1 in
  Alcotest.(check (float 0.001)) "lock-step async works" 1.0 frac1;
  Alcotest.(check bool) "lock-step string carries entropy" false (is_all_zero g1);
  (* With real asynchrony (every message delayed 3 steps) the fixed
     round schedule misses every delivery: the committees time out and
     fall back to defaults, so nodes still "agree" — on the all-zero
     default string, which the adversary can predict. The randomness
     the composition needs is gone, which is exactly why the paper's
     conclusion lists asynchronous almost-everywhere agreement as an
     open problem. *)
  let _, g3 = run_aeba_async ~n:64 ~seed:51L ~delay_fn:(fun ~time:_ ~src:_ ~dst:_ _ -> 3) ~max_delay:3 in
  Alcotest.(check bool) "asynchrony degrades the output to the default" true (is_all_zero g3)

(* --- Aeba under dedicated attacks --- *)

let run_aeba_attacked ~n ~byz_frac ~seed ~attack =
  let cfg = Aeba.make_config ~n ~seed ~byzantine_fraction:byz_frac () in
  let rng = Prng.create (Int64.add seed 17L) in
  let t = int_of_float (byz_frac *. float n) in
  let corrupted = Bitset.of_array n (Prng.sample_without_replacement rng ~n ~k:t) in
  let adversary = attack cfg ~corrupted in
  let res =
    Engine.run ~config:cfg ~n ~seed ~adversary ~mode:`Rushing
      ~max_rounds:(Aeba.total_rounds cfg + 2) ()
  in
  (corrupted, res)

let ae_fraction ~n corrupted (res : Engine.result) =
  let mask = Array.init n (fun i -> not (Bitset.mem corrupted i)) in
  match Plurality.of_outputs res.Fba_sim.Sync_engine.outputs ~counted:(Array.get mask) with
  | None -> 0.0
  | Some r ->
    let agree = ref 0 and correct = ref 0 in
    Array.iteri
      (fun i o ->
        if mask.(i) then begin
          incr correct;
          if o = Some r then incr agree
        end)
      res.Fba_sim.Sync_engine.outputs;
    float_of_int !agree /. float_of_int (max 1 !correct)

let test_aeba_biased_contribution () =
  let n = 128 in
  let corrupted, res =
    run_aeba_attacked ~n ~byz_frac:0.15 ~seed:41L
      ~attack:Fba_adversary.Aeba_attacks.biased_contribution
  in
  (* Bias cannot break agreement — only color the adversary's slices. *)
  Alcotest.(check bool) "a.e. agreement holds" true (ae_fraction ~n corrupted res >= 0.9)

let test_aeba_equivocating_relay () =
  let n = 128 in
  let corrupted, res =
    run_aeba_attacked ~n ~byz_frac:0.15 ~seed:42L
      ~attack:Fba_adversary.Aeba_attacks.equivocating_relay
  in
  (* Children take the parent-committee plurality: equivocation only
     wins where the adversary holds a committee majority. *)
  Alcotest.(check bool) "a.e. agreement under equivocation" true
    (ae_fraction ~n corrupted res >= 0.85)

let suites =
  [
    ( "aeba.phase_king",
      [
        Alcotest.test_case "validity, no faults" `Quick test_pk_validity_no_faults;
        Alcotest.test_case "agreement, mixed inputs" `Quick test_pk_agreement_mixed_inputs;
        Alcotest.test_case "silent byzantine" `Quick test_pk_silent_byzantine;
        Alcotest.test_case "equivocating byzantine" `Quick test_pk_equivocating_byzantine;
        Alcotest.test_case "validity under flooding" `Quick test_pk_validity_under_equivocation;
        Alcotest.test_case "round budget" `Quick test_pk_rounds_needed;
        Alcotest.test_case "validation" `Quick test_pk_validation;
      ] );
    ( "aeba.committee_tree",
      [
        Alcotest.test_case "structure + partition" `Quick test_tree_structure;
        Alcotest.test_case "group_of" `Quick test_tree_group_of;
        Alcotest.test_case "memberships two-way" `Quick test_tree_memberships;
        Alcotest.test_case "parent/children" `Quick test_tree_parent_children;
        Alcotest.test_case "determinism" `Quick test_tree_determinism;
        Alcotest.test_case "edge shapes" `Quick test_tree_edge_shapes;
      ] );
    ( "aeba.protocol",
      [
        Alcotest.test_case "almost-everywhere agreement" `Quick test_aeba_agreement;
        Alcotest.test_case "round budget" `Quick test_aeba_rounds_budget;
        Alcotest.test_case "gstring length" `Quick test_aeba_gstring_length;
        Alcotest.test_case "unanimous without faults" `Quick test_aeba_no_faults_unanimous;
        Alcotest.test_case "config validation/sizing" `Quick test_aeba_config_validation;
        Alcotest.test_case "byzantine fraction >= 1/3 refused" `Quick test_aeba_byzantine_refused;
        Alcotest.test_case "biased contributions" `Quick test_aeba_biased_contribution;
        Alcotest.test_case "equivocating relays" `Quick test_aeba_equivocating_relay;
        Alcotest.test_case "asynchrony boundary (Sec. 5)" `Quick test_aeba_async_boundary;
      ] );
  ]
