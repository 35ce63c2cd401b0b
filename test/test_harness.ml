open Fba_stdx
module Obs = Fba_harness.Obs
module Runner = Fba_harness.Runner
module Ba = Fba_harness.Ba

(* --- Obs --- *)

let mk_metrics ~n ~corrupted_ids =
  let corrupted = Bitset.of_list n corrupted_ids in
  Fba_sim.Metrics.create ~n ~corrupted

let test_obs_of_metrics () =
  let m = mk_metrics ~n:4 ~corrupted_ids:[ 3 ] in
  Fba_sim.Metrics.record_send m ~src:0 ~dst:1 ~bits:100;
  Fba_sim.Metrics.record_decision m ~id:0 ~round:2;
  Fba_sim.Metrics.record_decision m ~id:1 ~round:4;
  Fba_sim.Metrics.set_rounds m 5;
  let outputs = [| Some "g"; Some "bad"; None; Some "g" |] in
  let obs = Obs.of_metrics ~metrics:m ~outputs ~reference:(Some "g") () in
  Alcotest.(check int) "rounds" 5 obs.Obs.rounds;
  (* 3 correct nodes: 0 decided g, 1 decided bad, 2 undecided. *)
  Alcotest.(check (float 0.001)) "decided" (2.0 /. 3.0) obs.Obs.decided_fraction;
  Alcotest.(check (float 0.001)) "agreed" (1.0 /. 3.0) obs.Obs.agreed_fraction;
  Alcotest.(check int) "wrong" 1 obs.Obs.wrong_decisions;
  Alcotest.(check (option int)) "max decision incomplete" None obs.Obs.max_decision_round;
  Alcotest.(check (float 0.001)) "bits/node" 25.0 obs.Obs.bits_per_node

let test_obs_plurality_reference () =
  let m = mk_metrics ~n:3 ~corrupted_ids:[] in
  Fba_sim.Metrics.set_rounds m 1;
  let outputs = [| Some "a"; Some "a"; Some "b" |] in
  let obs = Obs.of_metrics ~metrics:m ~outputs ~reference:None () in
  Alcotest.(check (float 0.001)) "plurality wins" (2.0 /. 3.0) obs.Obs.agreed_fraction

let test_obs_aggregate () =
  let mk_obs rounds bits =
    let m = mk_metrics ~n:2 ~corrupted_ids:[] in
    Fba_sim.Metrics.record_send m ~src:0 ~dst:1 ~bits:(bits * 2);
    Fba_sim.Metrics.record_decision m ~id:0 ~round:rounds;
    Fba_sim.Metrics.record_decision m ~id:1 ~round:rounds;
    Fba_sim.Metrics.set_rounds m rounds;
    Obs.of_metrics ~metrics:m ~outputs:[| Some "g"; Some "g" |] ~reference:(Some "g") ()
  in
  let s = Obs.aggregate [ mk_obs 2 10; mk_obs 4 30 ] in
  Alcotest.(check int) "runs" 2 s.Obs.runs;
  Alcotest.(check (float 0.001)) "mean rounds" 3.0 s.Obs.mean_rounds;
  Alcotest.(check (float 0.001)) "mean bits" 20.0 s.Obs.mean_bits_per_node;
  Alcotest.(check (option int)) "worst decision" (Some 4) s.Obs.worst_decision_round;
  Alcotest.check_raises "empty rejected" (Invalid_argument "Obs.aggregate: empty") (fun () ->
      ignore (Obs.aggregate []))

let test_obs_all_corrupted_guard () =
  (* Every node Byzantine: all fractions must come out 0., never NaN. *)
  let m = mk_metrics ~n:3 ~corrupted_ids:[ 0; 1; 2 ] in
  Fba_sim.Metrics.record_send m ~src:0 ~dst:1 ~bits:50;
  Fba_sim.Metrics.set_rounds m 2;
  let obs = Obs.of_metrics ~metrics:m ~outputs:[| None; None; None |] ~reference:None () in
  Alcotest.(check (float 0.0)) "decided" 0.0 obs.Obs.decided_fraction;
  Alcotest.(check (float 0.0)) "agreed" 0.0 obs.Obs.agreed_fraction;
  Alcotest.(check (float 0.0)) "imbalance" 0.0 obs.Obs.load_imbalance;
  List.iter
    (fun (name, v) -> Alcotest.(check bool) (name ^ " not NaN") false (Float.is_nan v))
    [
      ("decided", obs.Obs.decided_fraction);
      ("agreed", obs.Obs.agreed_fraction);
      ("bits/node", obs.Obs.bits_per_node);
      ("msgs/node", obs.Obs.msgs_per_node);
      ("imbalance", obs.Obs.load_imbalance);
    ];
  Alcotest.(check int) "byz bits still counted" 50 obs.Obs.total_bits_all

let test_obs_silent_correct_guard () =
  (* Correct nodes exist but none of them ever sends. *)
  let m = mk_metrics ~n:4 ~corrupted_ids:[ 3 ] in
  Fba_sim.Metrics.set_rounds m 1;
  let obs =
    Obs.of_metrics ~metrics:m ~outputs:[| None; None; None; None |] ~reference:(Some "g") ()
  in
  Alcotest.(check (float 0.0)) "imbalance" 0.0 obs.Obs.load_imbalance;
  Alcotest.(check (float 0.0)) "bits/node" 0.0 obs.Obs.bits_per_node;
  Alcotest.(check bool) "imbalance not NaN" false (Float.is_nan obs.Obs.load_imbalance)

(* --- Runner + composition, fast smoke-level checks --- *)

let test_runner_end_to_end () =
  let sc = Runner.scenario_of_setup Runner.default_setup ~n:64 ~seed:11L in
  let r = Runner.aer_sync ~adversary:Fba_adversary.Aer_attacks.silent sc in
  Alcotest.(check (float 0.001)) "all agreed" 1.0 r.Runner.obs.Obs.agreed_fraction;
  Alcotest.(check int) "no missing gstring" 0 r.Runner.gstring_missing;
  Alcotest.(check bool) "push bounded" true
    (r.Runner.push_max_messages <= 3 * Fba_core.Params.(sc.Fba_core.Scenario.params.d_i));
  let grid_obs = Runner.run_grid sc in
  Alcotest.(check (float 0.001)) "grid agrees too" 1.0 grid_obs.Obs.agreed_fraction;
  let relay_obs = Runner.run_relay sc in
  Alcotest.(check (float 0.001)) "relay agrees too" 1.0 relay_obs.Obs.agreed_fraction

let test_runner_seeds_stable () =
  Alcotest.(check (list int64)) "fixed seed list" [ 1020L; 2033L ]
    (Runner.seeds 2)

let test_runner_phase_breakdown () =
  (* The per-phase split must repartition the run's traffic exactly:
     bits over phases sum to Metrics.total_bits_all, messages to the
     total message count, and the phase names are AER's pipeline. *)
  let sc = Runner.scenario_of_setup Runner.default_setup ~n:64 ~seed:11L in
  let adversary sc =
    Fba_adversary.Aer_attacks.(compose sc [ push_flood sc; wrong_answer sc ])
  in
  let run, tally = Runner.aer_phases ~adversary sc in
  let obs = run.Runner.obs in
  let rows = Fba_sim.Events.Tally.rows tally in
  Alcotest.(check int) "phase bits sum to total_bits_all" obs.Obs.total_bits_all
    (Fba_sim.Events.Tally.total_bits tally);
  Alcotest.(check bool) "phases observed" true (rows <> []);
  let names = List.map (fun r -> r.Fba_sim.Events.Tally.phase) rows in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("phase " ^ name ^ " is an AER phase") true
        (List.mem name [ "push"; "poll"; "fw1"; "fw2" ]))
    names;
  Alcotest.(check bool) "push phase present" true (List.mem "push" names);
  let row_bits =
    List.fold_left
      (fun a (r : Fba_sim.Events.Tally.row) ->
        a + r.Fba_sim.Events.Tally.bits_correct + r.Fba_sim.Events.Tally.bits_byz)
      0 rows
  in
  Alcotest.(check int) "rows agree with the tally" (Fba_sim.Events.Tally.total_bits tally)
    row_bits;
  (* An untraced run of the same scenario is unaffected by tracing. *)
  let plain = Runner.aer_sync ~adversary sc in
  Alcotest.(check int) "tracing did not change traffic" plain.Runner.obs.Obs.total_bits_all
    obs.Obs.total_bits_all

(* --- Sharded sweep: jobs-invariance golden --- *)

module Exp_lemmas = Fba_harness.Exp_lemmas

let render_lemmas rows =
  let path = Filename.temp_file "fba_lemmas" ".md" in
  let oc = open_out_bin path in
  Exp_lemmas.render ~full:false ~out:oc rows;
  close_out oc;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

let test_sweep_jobs_invariance () =
  (* The cheap (n<=64) subset of the lemmas grid, rendered sequentially
     and on 4 domains: the reports must be byte-identical. *)
  let cells =
    List.filter (fun c -> Exp_lemmas.cell_size c <= 64) (Exp_lemmas.grid ~full:false)
  in
  Alcotest.(check bool) "subset grid non-empty" true (cells <> []);
  let render_at jobs = render_lemmas (Pool.map_list ~jobs Exp_lemmas.run_cell cells) in
  let sequential = render_at 1 in
  let sharded = render_at 4 in
  Alcotest.(check bool) "rendered something" true (String.length sequential > 0);
  Alcotest.(check string) "byte-identical at jobs=1 and jobs=4" sequential sharded

let test_composition_grid () =
  let r = Ba.run_grid ~n:64 ~seed:12L ~byzantine_fraction:0.1 () in
  Alcotest.(check int) "everyone agrees" r.Ba.correct r.Ba.agreed;
  let phase2 =
    match r.Ba.phase2_metrics with
    | Some m -> Fba_sim.Metrics.amortized_bits m
    | None -> Alcotest.fail "phase 2 skipped"
  in
  Alcotest.(check bool) "phase2 bits accounted" true (phase2 > 0.0);
  Alcotest.(check bool) "phase2 below total" true
    (phase2 < Fba_sim.Metrics.amortized_bits r.Ba.metrics)

(* --- Binary BA reduction --- *)

let test_binary_ba () =
  let r =
    Ba.run_binary ~inputs:(fun i -> i mod 2 = 0) ~n:64 ~seed:14L ~byzantine_fraction:0.1 ()
  in
  Alcotest.(check int) "unanimity among correct" r.Ba.correct r.Ba.agreed;
  Alcotest.(check bool) "validity" true r.Ba.validity_respected;
  Alcotest.(check bool) "decided" true (r.Ba.decided_bit <> None)

let test_binary_ba_validity_unanimous () =
  (* All-true inputs must decide true whatever the coin says. *)
  let r = Ba.run_binary ~inputs:(fun _ -> true) ~n:64 ~seed:15L ~byzantine_fraction:0.1 () in
  Alcotest.(check (option bool)) "decides the unanimous input" (Some true) r.Ba.decided_bit;
  Alcotest.(check bool) "validity" true r.Ba.validity_respected

let suites =
  [
    ( "harness.obs",
      [
        Alcotest.test_case "of_metrics" `Quick test_obs_of_metrics;
        Alcotest.test_case "plurality reference" `Quick test_obs_plurality_reference;
        Alcotest.test_case "aggregate" `Quick test_obs_aggregate;
        Alcotest.test_case "all-corrupted guards" `Quick test_obs_all_corrupted_guard;
        Alcotest.test_case "silent-correct guards" `Quick test_obs_silent_correct_guard;
      ] );
    ( "harness.runner",
      [
        Alcotest.test_case "end to end" `Quick test_runner_end_to_end;
        Alcotest.test_case "stable seeds" `Quick test_runner_seeds_stable;
        Alcotest.test_case "phase breakdown accounting" `Quick test_runner_phase_breakdown;
      ] );
    ( "harness.sweep",
      [ Alcotest.test_case "jobs invariance (lemmas subset)" `Quick test_sweep_jobs_invariance ] );
    ( "harness.composition",
      [
        Alcotest.test_case "aeba + grid" `Quick test_composition_grid;
      ] );
    ( "core.binary_ba",
      [
        Alcotest.test_case "agreement on split inputs" `Quick test_binary_ba;
        Alcotest.test_case "validity on unanimous inputs" `Quick test_binary_ba_validity_unanimous;
      ] );
  ]
