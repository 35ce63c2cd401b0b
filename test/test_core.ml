open Fba_stdx
open Fba_core
module Attacks = Fba_adversary.Aer_attacks
module Engine = Fba_sim.Sync_engine.Make (Aer)
module Async = Fba_sim.Async_engine.Make (Aer)
module Ba = Fba_harness.Ba

(* --- Params --- *)

let test_params_defaults () =
  let p = Params.make ~n:1024 ~seed:1L () in
  Alcotest.(check int) "d_i" 20 p.Params.d_i;
  Alcotest.(check int) "d_j" 20 p.Params.d_j;
  Alcotest.(check int) "d_h" 15 p.Params.d_h;
  Alcotest.(check int) "gstring bits" 80 p.Params.gstring_bits;
  Alcotest.(check int) "pull filter" 100 p.Params.pull_filter;
  Alcotest.(check int) "poll attempts default to the paper's 1" 1 p.Params.max_poll_attempts

let test_params_validation () =
  Alcotest.check_raises "n too small" (Invalid_argument "Params.make: n must be at least 4")
    (fun () -> ignore (Params.make ~n:3 ~seed:1L ()));
  Alcotest.check_raises "d out of range" (Invalid_argument "Params.make: d_i out of range")
    (fun () -> ignore (Params.make ~d_i:0 ~n:16 ~seed:1L ()));
  Alcotest.check_raises "byz out of range"
    (Invalid_argument "Params.make_for: byzantine_fraction must be in [0, 1/3)") (fun () ->
      ignore
        (Params.make_for ~n:64 ~seed:1L ~byzantine_fraction:0.34 ~knowledgeable_fraction:0.6 ()))

let test_params_make_for_sizing () =
  let lax = Params.make_for ~n:256 ~seed:1L ~byzantine_fraction:0.05 ~knowledgeable_fraction:0.9 () in
  let harsh =
    Params.make_for ~n:256 ~seed:1L ~byzantine_fraction:0.25 ~knowledgeable_fraction:0.7 ()
  in
  Alcotest.(check bool) "harsher faults need bigger push quorums" true
    (harsh.Params.d_i > lax.Params.d_i);
  Alcotest.(check bool) "harsher faults need bigger poll lists" true
    (harsh.Params.d_j > lax.Params.d_j);
  (* The sizing target must actually be met. *)
  let miss =
    Stats.binomial_tail ~trials:harsh.Params.d_i ~p:0.3
      ~at_least:(Params.majority_i harsh)
  in
  Alcotest.(check bool) "per-run miss below budget" true (miss *. 256.0 <= 0.05 +. 1e-9)

let test_params_samplers_distinct () =
  let p = Params.make ~n:64 ~seed:1L () in
  let qi = Fba_samplers.Sampler.quorum_sx (Params.sampler_i p) ~s:"s" ~x:0 in
  let qh = Fba_samplers.Sampler.quorum_sx (Params.sampler_h p) ~s:"s" ~x:0 in
  Alcotest.(check bool) "I and H are independent samplers" false (qi = qh)

(* --- Msg --- *)

(* AER's wire sizes at n = 256 for an 8-byte string: a 24-bit header
   (8-bit tag, two 8-bit ids) + 64 string bits, + a 64-bit label for
   Poll and Pull, + one 8-bit id for Fw2 and two for Fw1. *)
let test_msg_bits () =
  let params = Params.make ~n:256 ~seed:1L () in
  let sc =
    Scenario.make ~params ~rng:(Prng.create 2L) ~byzantine_fraction:0.1
      ~knowledgeable_fraction:0.85 ()
  in
  let cfg = Aer.config_of_scenario sc in
  let wd = Words.of_scenario sc in
  let s = String.make 8 'x' in
  Alcotest.(check (list int)) "Push, Poll, Pull, Fw1, Fw2, Answer"
    [ 88; 152; 152; 168; 160; 88 ]
    (List.map (Aer.msg_bits cfg)
       [
         Words.push wd s;
         Words.poll wd s ~r:1L;
         Words.pull wd s ~r:1L;
         Words.fw1 wd ~x:0 s ~r:1L ~w:1;
         Words.fw2 wd ~x:0 s ~r:1L;
         Words.answer wd s;
       ])

(* --- Scenario --- *)

let mk_scenario ?(junk = Scenario.Junk_unique) ?(byz = 0.1) ?(kn = 0.85) ?(n = 128) seed =
  let params = Params.make_for ~n ~seed ~byzantine_fraction:byz ~knowledgeable_fraction:kn () in
  let rng = Prng.create (Int64.add seed 1000L) in
  Scenario.make ~junk ~params ~rng ~byzantine_fraction:byz ~knowledgeable_fraction:kn ()

let test_scenario_invariants () =
  let n = 128 in
  let sc = mk_scenario ~n 1L in
  Alcotest.(check int) "byzantine count" 12 (Bitset.cardinal sc.Scenario.corrupted);
  Alcotest.(check int) "knowledgeable count" 109 (Bitset.cardinal sc.Scenario.knowledgeable);
  (* Disjointness and assignment consistency. *)
  Bitset.iter
    (fun i ->
      Alcotest.(check bool) "knowledgeable are correct" false (Bitset.mem sc.Scenario.corrupted i);
      Alcotest.(check string) "knowledgeable hold gstring" sc.Scenario.gstring
        sc.Scenario.initial.(i))
    sc.Scenario.knowledgeable;
  for i = 0 to n - 1 do
    if Scenario.is_correct sc i && not (Bitset.mem sc.Scenario.knowledgeable i) then
      Alcotest.(check bool) "ignorant don't hold gstring" false
        (sc.Scenario.initial.(i) = sc.Scenario.gstring)
  done

let test_scenario_junk_modes () =
  let sc = mk_scenario ~junk:Scenario.Junk_default 2L in
  let ignorant =
    List.filter
      (fun i -> Scenario.is_correct sc i && not (Scenario.knows_gstring sc i))
      (List.init 128 (fun i -> i))
  in
  (match ignorant with
  | a :: b :: _ ->
    Alcotest.(check string) "default junk is shared" sc.Scenario.initial.(a)
      sc.Scenario.initial.(b)
  | _ -> Alcotest.fail "expected ignorant nodes");
  let sc2 = mk_scenario ~junk:(Scenario.Junk_shared 2) 3L in
  let distinct = Hashtbl.create 4 in
  List.iter
    (fun i ->
      if Scenario.is_correct sc2 i && not (Scenario.knows_gstring sc2 i) then
        Hashtbl.replace distinct sc2.Scenario.initial.(i) ())
    (List.init 128 (fun i -> i));
  Alcotest.(check int) "two shared junk strings" 2 (Hashtbl.length distinct)

let test_scenario_validation () =
  let params = Params.make ~n:64 ~seed:1L () in
  let rng = Prng.create 1L in
  Alcotest.check_raises "byz out of range"
    (Invalid_argument "Scenario.make: byzantine_fraction must be in [0, 1/3)") (fun () ->
      ignore
        (Scenario.make ~params ~rng ~byzantine_fraction:0.5 ~knowledgeable_fraction:0.8 ()));
  Alcotest.check_raises "know out of range"
    (Invalid_argument "Scenario.make: knowledgeable_fraction must be in (1/2, 1]") (fun () ->
      ignore
        (Scenario.make ~params ~rng ~byzantine_fraction:0.1 ~knowledgeable_fraction:0.5 ()));
  Alcotest.check_raises "overcommitted"
    (Invalid_argument "Scenario.make: more knowledgeable nodes requested than correct nodes exist")
    (fun () ->
      ignore
        (Scenario.make ~params ~rng ~byzantine_fraction:0.3 ~knowledgeable_fraction:0.9 ()))

let test_scenario_of_assignment () =
  let params = Params.make ~n:8 ~seed:1L ~gstring_bits:8 () in
  let corrupted = Bitset.of_list 8 [ 0 ] in
  let initial = [| "x"; "g"; "g"; "g"; "g"; "j"; "g"; "g" |] in
  let sc = Scenario.of_assignment ~params ~gstring:"g" ~corrupted ~initial () in
  Alcotest.(check int) "knowledgeable derived" 6 (Bitset.cardinal sc.Scenario.knowledgeable);
  Alcotest.(check bool) "corrupted holder not knowledgeable" false
    (Bitset.mem sc.Scenario.knowledgeable 0);
  Alcotest.(check (float 0.001)) "fraction" 0.75 (Scenario.knowledgeable_fraction sc)

let test_scenario_gstring_override_stable () =
  (* Same seed with/without explicit gstring must corrupt the same
     identities (the split-stream property used by ablations). *)
  let params = Params.make_for ~n:64 ~seed:4L ~byzantine_fraction:0.1 ~knowledgeable_fraction:0.8 () in
  let mk g =
    let rng = Prng.create 77L in
    Scenario.make ?gstring:g ~params ~rng ~byzantine_fraction:0.1 ~knowledgeable_fraction:0.8 ()
  in
  let a = mk None in
  let b = mk (Some (String.make ((Params.(params.gstring_bits) + 7) / 8) 'Q')) in
  Alcotest.(check (list int)) "same corruption" (Bitset.to_list a.Scenario.corrupted)
    (Bitset.to_list b.Scenario.corrupted);
  Alcotest.(check (list int)) "same knowledge" (Bitset.to_list a.Scenario.knowledgeable)
    (Bitset.to_list b.Scenario.knowledgeable)

(* --- AER end-to-end --- *)

let run_sync ?(mode = `Rushing) ?(strict_drop = false) ~attack sc =
  let cfg = Aer.config_of_scenario ~strict_drop sc in
  let n = Scenario.(sc.params.Params.n) in
  Engine.run ~quiet_limit:(Params.quiet_limit sc.Scenario.params) ~config:cfg ~n
    ~seed:sc.Scenario.params.Params.seed ~adversary:(attack sc) ~mode ~max_rounds:200 ()

let outcomes sc (res : Engine.result) =
  let ok = ref 0 and bad = ref 0 and und = ref 0 in
  Array.iteri
    (fun i o ->
      if Scenario.is_correct sc i then begin
        match o with
        | Some v when v = sc.Scenario.gstring -> incr ok
        | Some _ -> incr bad
        | None -> incr und
      end)
    res.Fba_sim.Sync_engine.outputs;
  (!ok, !bad, !und)

let test_aer_silent () =
  let sc = mk_scenario 10L in
  let res = run_sync ~attack:Attacks.silent sc in
  let ok, bad, und = outcomes sc res in
  Alcotest.(check int) "no wrong decisions" 0 bad;
  Alcotest.(check int) "no undecided" 0 und;
  Alcotest.(check int) "everyone on gstring" (Scenario.correct_count sc) ok;
  Alcotest.(check bool) "constant rounds" true
    (Fba_sim.Metrics.rounds res.Fba_sim.Sync_engine.metrics <= 10)

let test_aer_success_guaranteed_no_faults () =
  (* "unlike many randomized protocols, success is guaranteed when
     there is no Byzantine fault" — with 0 corruption every node must
     decide gstring. *)
  let params = Params.make_for ~n:64 ~seed:11L ~byzantine_fraction:0.0 ~knowledgeable_fraction:0.8 () in
  let rng = Prng.create 12L in
  let sc =
    Scenario.make ~params ~rng ~byzantine_fraction:0.0 ~knowledgeable_fraction:0.8 ()
  in
  let res = run_sync ~attack:Attacks.silent sc in
  let ok, bad, und = outcomes sc res in
  Alcotest.(check int) "all decide" 64 ok;
  Alcotest.(check int) "none wrong" 0 bad;
  Alcotest.(check int) "none undecided" 0 und

let test_aer_flood_safety () =
  let sc = mk_scenario ~junk:(Scenario.Junk_shared 2) 13L in
  let res =
    run_sync ~attack:(fun sc -> Attacks.(compose sc [ push_flood ~fake_strings:4 sc; wrong_answer sc ])) sc
  in
  let ok, bad, und = outcomes sc res in
  Alcotest.(check int) "no wrong decisions under flood+lies" 0 bad;
  Alcotest.(check int) "no undecided" 0 und;
  Alcotest.(check int) "all on gstring" (Scenario.correct_count sc) ok

let test_aer_flood_candidate_bound () =
  (* Lemma 4: sum of candidate-list sizes stays O(n). *)
  let sc = mk_scenario ~junk:(Scenario.Junk_shared 2) ~n:128 14L in
  let cfg = Aer.config_of_scenario sc in
  let res =
    Engine.run ~config:cfg ~n:128 ~seed:sc.Scenario.params.Params.seed
      ~adversary:(Attacks.push_flood ~fake_strings:6 sc)
      ~mode:`Rushing ~max_rounds:100 ()
  in
  let sum = ref 0 and maxp = ref 0 in
  Array.iteri
    (fun i st ->
      match st with
      | Some st when Scenario.is_correct sc i ->
        sum := !sum + Aer.candidate_count st;
        maxp := max !maxp (Aer.push_messages_sent st)
      | _ -> ())
    res.Fba_sim.Sync_engine.states;
  Alcotest.(check bool) "Lemma 4: sum|Lx| <= 3n" true (!sum <= 3 * 128);
  (* Lemma 3: no correct node pushes more than O(d_i). *)
  Alcotest.(check bool) "Lemma 3: push fan-out bounded" true
    (!maxp <= 3 * Params.(sc.Scenario.params.d_i))

let test_aer_blast_flood_ignored () =
  let sc = mk_scenario ~n:64 15L in
  let res = run_sync ~attack:(fun sc -> Attacks.push_flood ~blast:true sc) sc in
  let _, bad, und = outcomes sc res in
  Alcotest.(check int) "blast flood: no wrong" 0 bad;
  Alcotest.(check int) "blast flood: no undecided" 0 und

let test_aer_non_rushing_constant_time () =
  let sc = mk_scenario ~byz:0.2 ~kn:0.8 16L in
  let res = run_sync ~mode:`Non_rushing ~attack:(fun sc -> Attacks.cornering sc) sc in
  let _, bad, und = outcomes sc res in
  Alcotest.(check int) "no wrong" 0 bad;
  Alcotest.(check int) "no undecided" 0 und;
  match Fba_sim.Metrics.max_decision_round_correct res.Fba_sim.Sync_engine.metrics with
  | Some r -> Alcotest.(check bool) "Lemma 8: constant decision time" true (r <= 8)
  | None -> Alcotest.fail "incomplete"

let test_aer_cornering_safety () =
  let sc = mk_scenario ~byz:0.2 ~kn:0.8 17L in
  let res = run_sync ~mode:`Rushing ~attack:(fun sc -> Attacks.cornering sc) sc in
  let _, bad, und = outcomes sc res in
  Alcotest.(check int) "no wrong under cornering" 0 bad;
  Alcotest.(check int) "all decide eventually" 0 und

let test_aer_quorum_capture_concentrates_load () =
  let params = Params.make ~n:128 ~seed:18L ~d_i:12 ~d_h:12 ~d_j:12 () in
  let rng = Prng.create 19L in
  let sc =
    Scenario.make ~params ~rng ~byzantine_fraction:0.25 ~knowledgeable_fraction:0.7 ()
  in
  let cfg = Aer.config_of_scenario sc in
  let res =
    Engine.run ~config:cfg ~n:128 ~seed:params.Params.seed
      ~adversary:(Attacks.quorum_capture ~victims:2 ~strings_per_victim:16 sc)
      ~mode:`Rushing ~max_rounds:100 ()
  in
  let max_cand = ref 0 in
  Array.iteri
    (fun i st ->
      match st with
      | Some st when Scenario.is_correct sc i -> max_cand := max !max_cand (Aer.candidate_count st)
      | _ -> ())
    res.Fba_sim.Sync_engine.states;
  (* Victims get force-fed candidates: the max list must be far above
     the ~1 of unattacked runs. *)
  Alcotest.(check bool) "victim verifies many strings" true (!max_cand >= 8)

let test_aer_async () =
  let sc = mk_scenario ~n:96 20L in
  let cfg = Aer.config_of_scenario sc in
  let adversary = Attacks.async_cornering sc in
  let res =
    Async.run ~config:cfg ~n:96 ~seed:sc.Scenario.params.Params.seed ~adversary ~max_time:3000 ()
  in
  let ok = ref 0 and bad = ref 0 in
  Array.iteri
    (fun i o ->
      if Scenario.is_correct sc i then
        match o with
        | Some v when v = sc.Scenario.gstring -> incr ok
        | Some _ -> incr bad
        | None -> ())
    res.Fba_sim.Async_engine.outputs;
  Alcotest.(check int) "async: no wrong" 0 !bad;
  Alcotest.(check int) "async: all decide gstring" (Scenario.correct_count sc) !ok

let test_aer_repoll_extension () =
  (* With deliberately tiny poll lists (but safe pull quorums — a bad
     H(g,x) is label-independent, so re-polling cannot rescue it),
     attempts=1 strands some nodes and attempts=4 must recover them. *)
  let run attempts =
    let params =
      Params.make ~n:128 ~seed:2033L ~d_i:17 ~d_h:17 ~d_j:7 ~max_poll_attempts:attempts ()
    in
    let rng = Prng.create 3033L in
    let sc =
      Scenario.make ~params ~rng ~byzantine_fraction:0.2 ~knowledgeable_fraction:0.8 ()
    in
    let res = run_sync ~attack:Attacks.silent sc in
    let _, _, und = outcomes sc res in
    und
  in
  let und1 = run 1 and und4 = run 4 in
  Alcotest.(check bool) "re-polling helps" true (und4 <= und1);
  Alcotest.(check int) "re-polling completes" 0 und4

let test_aer_deterministic () =
  let sc1 = mk_scenario ~n:64 21L in
  let sc2 = mk_scenario ~n:64 21L in
  let r1 = run_sync ~attack:Attacks.silent sc1 in
  let r2 = run_sync ~attack:Attacks.silent sc2 in
  Alcotest.(check int) "same bits"
    (Fba_sim.Metrics.total_bits_correct r1.Fba_sim.Sync_engine.metrics)
    (Fba_sim.Metrics.total_bits_correct r2.Fba_sim.Sync_engine.metrics);
  Alcotest.(check int) "same rounds"
    (Fba_sim.Metrics.rounds r1.Fba_sim.Sync_engine.metrics)
    (Fba_sim.Metrics.rounds r2.Fba_sim.Sync_engine.metrics)

let test_aer_strict_drop_runs () =
  let sc = mk_scenario ~n:64 22L in
  let res = run_sync ~strict_drop:true ~attack:Attacks.silent sc in
  let _, bad, _ = outcomes sc res in
  Alcotest.(check int) "strict mode safe" 0 bad

(* --- BA composition --- *)

let test_ba_end_to_end () =
  let r = Ba.run_sync ~n:128 ~seed:30L ~byzantine_fraction:0.1 () in
  Alcotest.(check bool) "phase 1 reaches a.e." true (r.Ba.ae_fraction > 0.75);
  Alcotest.(check int) "everyone agrees" r.Ba.correct r.Ba.agreed;
  Alcotest.(check bool) "all decided" true r.Ba.all_decided;
  match r.Ba.gstring with
  | Some g -> Alcotest.(check bool) "gstring non-trivial" true (String.length g > 0)
  | None -> Alcotest.fail "no gstring"

let test_ba_metrics_merged () =
  let r = Ba.run_sync ~n:64 ~seed:31L ~byzantine_fraction:0.1 () in
  let phase2 =
    match r.Ba.phase2_metrics with Some m -> m | None -> Alcotest.fail "phase 2 skipped"
  in
  Alcotest.(check int) "rounds add up"
    (Fba_sim.Metrics.rounds r.Ba.aeba_metrics + Fba_sim.Metrics.rounds phase2)
    (Fba_sim.Metrics.rounds r.Ba.metrics);
  Alcotest.(check int) "bits add up"
    (Fba_sim.Metrics.total_bits_correct r.Ba.aeba_metrics
    + Fba_sim.Metrics.total_bits_correct phase2)
    (Fba_sim.Metrics.total_bits_correct r.Ba.metrics)

let test_ba_no_faults () =
  let r = Ba.run_sync ~n:64 ~seed:32L ~byzantine_fraction:0.0 () in
  Alcotest.(check int) "unanimous" 64 r.Ba.agreed

let suites =
  [
    ( "core.params",
      [
        Alcotest.test_case "defaults" `Quick test_params_defaults;
        Alcotest.test_case "validation" `Quick test_params_validation;
        Alcotest.test_case "make_for sizing" `Quick test_params_make_for_sizing;
        Alcotest.test_case "independent samplers" `Quick test_params_samplers_distinct;
      ] );
    ("core.msg", [ Alcotest.test_case "wire sizes" `Quick test_msg_bits ]);
    ( "core.scenario",
      [
        Alcotest.test_case "invariants" `Quick test_scenario_invariants;
        Alcotest.test_case "junk modes" `Quick test_scenario_junk_modes;
        Alcotest.test_case "validation" `Quick test_scenario_validation;
        Alcotest.test_case "of_assignment" `Quick test_scenario_of_assignment;
        Alcotest.test_case "gstring override keeps workload" `Quick
          test_scenario_gstring_override_stable;
      ] );
    ( "core.aer",
      [
        Alcotest.test_case "silent adversary" `Quick test_aer_silent;
        Alcotest.test_case "guaranteed success, no faults" `Quick
          test_aer_success_guaranteed_no_faults;
        Alcotest.test_case "flood + bogus answers safety (L4/L5/L7)" `Quick test_aer_flood_safety;
        Alcotest.test_case "candidate and push bounds (L3/L4)" `Quick
          test_aer_flood_candidate_bound;
        Alcotest.test_case "blast flood ignored" `Quick test_aer_blast_flood_ignored;
        Alcotest.test_case "non-rushing constant time (L8)" `Quick
          test_aer_non_rushing_constant_time;
        Alcotest.test_case "cornering safety (L6)" `Quick test_aer_cornering_safety;
        Alcotest.test_case "quorum capture concentrates load" `Quick
          test_aer_quorum_capture_concentrates_load;
        Alcotest.test_case "asynchronous execution (L10)" `Quick test_aer_async;
        Alcotest.test_case "re-poll extension" `Quick test_aer_repoll_extension;
        Alcotest.test_case "deterministic replay" `Quick test_aer_deterministic;
        Alcotest.test_case "strict-drop mode" `Quick test_aer_strict_drop_runs;
      ] );
    ( "core.ba",
      [
        Alcotest.test_case "end to end" `Quick test_ba_end_to_end;
        Alcotest.test_case "metrics merged" `Quick test_ba_metrics_merged;
        Alcotest.test_case "no faults" `Quick test_ba_no_faults;
      ] );
  ]
