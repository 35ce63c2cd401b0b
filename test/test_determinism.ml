(* Engine-determinism goldens.

   The mailbox/calendar-queue engine internals and the sampler cache
   layout are pure performance work: for a fixed (setup, n, seed) they
   must reproduce the exact per-node traffic and decision history the
   cons-list engines produced. Three layers of evidence:

   - recorded golden runs at n = 256: a 64-bit fingerprint over every
     node's sent/received message and bit counters plus its decision
     round, checked against values recorded from the pre-refactor
     engines — any reordering of deliveries, adversary observations or
     sampler draws shows up here;
   - traced goldens at n = 48 (this file's non-rushing run, test_net's
     lossy ones): the fingerprint plus digests of the decision vector
     and of the whole JSONL event trace;
   - a qcheck property that running the same scenario twice (and the
     sync engine against a fresh scenario value) is bit-identical, so
     engine state can't leak across runs through reused storage. *)

module Attacks = Fba_adversary.Aer_attacks
module Runner = Fba_harness.Runner
module Metrics = Fba_sim.Metrics
open Fba_core
open Fba_stdx
module Aer_sync = Fba_sim.Sync_engine.Make (Aer)
module Aer_async = Fba_sim.Async_engine.Make (Aer)

let fingerprint = Fba_harness.Service.fingerprint

(* Runner.aer_sync's quiescence window, so the goldens pin the same
   executions the harness produces. *)
let quiet_limit_of sc = Params.quiet_limit sc.Scenario.params

let run_sync_res ?events ?net ?(mode = `Rushing) ~n ~seed adv =
  let sc = Runner.scenario_of_setup Runner.default_setup ~n ~seed in
  let cfg = Aer.config_of_scenario sc in
  Aer_sync.run ~quiet_limit:(quiet_limit_of sc) ?events ?net ~config:cfg ~n ~seed
    ~adversary:(adv sc) ~mode ~max_rounds:300 ()

let run_sync ~n ~seed adv = (run_sync_res ~n ~seed adv).Fba_sim.Sync_engine.metrics

let run_async_res ?events ?net ~n ~seed adv =
  let sc = Runner.scenario_of_setup Runner.default_setup ~n ~seed in
  let cfg = Aer.config_of_scenario sc in
  Aer_async.run ?events ?net ~config:cfg ~n ~seed ~adversary:(adv sc) ~max_time:4000 ()

let run_async ~n ~seed adv = (run_async_res ~n ~seed adv).Fba_sim.Async_engine.metrics

let check_golden name ~fp ~bits ~msgs ~rounds ~decided m =
  Alcotest.(check int) (name ^ " total bits") bits (Metrics.total_bits_correct m);
  Alcotest.(check int) (name ^ " total msgs") msgs (Metrics.total_messages_correct m);
  Alcotest.(check int) (name ^ " rounds") rounds (Metrics.rounds m);
  Alcotest.(check int) (name ^ " decided") decided (Metrics.decided_count m);
  if not (Int64.equal fp (fingerprint m)) then
    Alcotest.failf "%s fingerprint drifted: got 0x%LxL, recorded 0x%LxL" name (fingerprint m) fp

(* Recorded from the seed (pre-refactor) engines at n=256, seed=7. *)
let test_golden_sync_silent () =
  check_golden "sync-silent" ~fp:0xaea3f126fbae39daL ~bits:84037104 ~msgs:505908 ~rounds:6
    ~decided:231
    (run_sync ~n:256 ~seed:7L Attacks.silent)

let test_golden_sync_cornering () =
  check_golden "sync-cornering" ~fp:0x13bb2c9332c814d7L ~bits:93214536 ~msgs:560854 ~rounds:6
    ~decided:231
    (run_sync ~n:256 ~seed:7L (fun sc -> Attacks.cornering sc))

let test_golden_async_cornering () =
  check_golden "async-cornering" ~fp:0xb7148be671e42b29L ~bits:93214536 ~msgs:560854 ~rounds:20
    ~decided:231
    (run_async ~n:256 ~seed:7L (fun sc -> Attacks.async_cornering sc))

(* Recorded at n=128, seed=1, while the capture attack still drew its
   push quorums through a Cache: the port to direct Sampler queries
   moved no execution. *)
let test_golden_sync_quorum_capture () =
  check_golden "sync-quorum-capture" ~fp:0x140d4f7d6a0381ddL ~bits:24206989 ~msgs:157541
    ~rounds:8 ~decided:116
    (run_sync ~n:128 ~seed:1L (fun sc -> Attacks.quorum_capture sc))

(* Packed-path golden: the interner is the packed plane's side table —
   every string and label a run touches is registered in deterministic
   order, so its final contents are as much a fingerprint of the
   execution as the traffic counters above. Recorded from the same
   n=256 seed=7 cornering run the sync golden pins. *)
let test_golden_intern_table () =
  let n = 256 and seed = 7L in
  let sc = Runner.scenario_of_setup Runner.default_setup ~n ~seed in
  let cfg = Aer.config_of_scenario sc in
  ignore
    (Aer_sync.run ~quiet_limit:(quiet_limit_of sc) ~config:cfg ~n ~seed
       ~adversary:(Attacks.cornering sc) ~mode:`Rushing ~max_rounds:300 ());
  let it = sc.Scenario.intern in
  Alcotest.(check int) "interned strings" 39 (Intern.string_count it);
  Alcotest.(check int) "interned labels" 269 (Intern.label_count it);
  let h = ref (Hash64.init 0x1D5L) in
  for i = 0 to Intern.string_count it - 1 do
    h := Hash64.add_string !h (Intern.string it i)
  done;
  for i = 0 to Intern.label_count it - 1 do
    h := Hash64.add_int64 !h (Intern.label it i)
  done;
  let got = Hash64.finish !h in
  if not (Int64.equal got 0x52c40008e5570c47L) then
    Alcotest.failf "intern table drifted: got 0x%LxL, recorded 0x52c40008e5570c47L" got

(* --- Traced goldens ---

   Each value below was recorded twice: on the streamed delivery plane
   with compiled AER dispatch, and on the double-buffered mailbox lanes
   with the tag-comparison dispatch those replaced. The two agreed, so
   these goldens now stand where the twin-identity properties stood. A
   traced golden holds a run's metrics fingerprint, a digest of its
   decision vector and a digest of its JSONL event trace.

   The engines are a trace's only emitters. The trace digests were
   re-derived when protocols stopped emitting phase markers: each is
   [Hash64.hash_string ~seed:0x7ACEL] of the previously recorded run's
   JSONL with its {"ev":"phase" lines removed, so the engine events
   themselves did not move (fingerprints and outputs are unchanged). *)

let jsonl_sink () =
  let buf = Buffer.create 4096 in
  let sink = Fba_sim.Events.create () in
  Fba_sim.Events.attach sink (Fba_sim.Events.Jsonl.consumer buf);
  (sink, buf)

let outputs_digest outs =
  Hash64.finish
    (Array.fold_left
       (fun h o -> match o with None -> Hash64.add_int h (-1) | Some s -> Hash64.add_string h s)
       (Hash64.init 0x0D7L) outs)

(* Cornering AER with a JSONL sink on the engine; returns (metrics,
   outputs, trace). *)
let traced_sync ?net ~mode ~n ~seed () =
  let sc = Runner.scenario_of_setup Runner.default_setup ~n ~seed in
  let events, buf = jsonl_sink () in
  let cfg = Aer.config_of_scenario sc in
  let r =
    Aer_sync.run ~quiet_limit:(quiet_limit_of sc) ~events ?net ~config:cfg ~n ~seed
      ~adversary:(Attacks.cornering sc) ~mode ~max_rounds:300 ()
  in
  (r.Fba_sim.Sync_engine.metrics, r.Fba_sim.Sync_engine.outputs, buf)

let traced_async ?net ~n ~seed () =
  let sc = Runner.scenario_of_setup Runner.default_setup ~n ~seed in
  let events, buf = jsonl_sink () in
  let cfg = Aer.config_of_scenario sc in
  let r =
    Aer_async.run ~events ?net ~config:cfg ~n ~seed ~adversary:(Attacks.async_cornering sc)
      ~max_time:4000 ()
  in
  (r.Fba_sim.Async_engine.metrics, r.Fba_sim.Async_engine.outputs, buf)

let check_traced_golden name ~fp ~outputs ~trace (m, outs, buf) =
  let check what recorded got =
    if not (Int64.equal recorded got) then
      Alcotest.failf "%s %s drifted: got 0x%LxL, recorded 0x%LxL" name what got recorded
  in
  check "fingerprint" fp (fingerprint m);
  check "outputs" outputs (outputs_digest outs);
  check "trace" trace (Hash64.hash_string ~seed:0x7ACEL (Buffer.contents buf))

(* `Non_rushing makes the engine keep each round's delivered correct
   chain as the mailbox's previous-round window. Cornering acts only in
   round 0, when that window is still empty, so the window's contents
   are checked by sim.sync's rushing-vs-non-rushing test. *)
let test_golden_sync_non_rushing () =
  check_traced_golden "sync-non-rushing" ~fp:0x577921a196aa87e3L ~outputs:0x27cda61dbfe282L
    ~trace:0x2fa12322c7885471L
    (traced_sync ~mode:`Non_rushing ~n:48 ~seed:7L ())

(* The grid baseline at n = 50: a ragged 7-column grid whose last row
   holds one node. The test adversary is rushing and stuffs the ballot
   for the minority: every message it sees from a node that does not
   hold gstring, each corrupted node re-sends three times to that
   message's destination. Replays from outside the destination's row
   (column) fail the grid's line filter; replays from inside carry one
   vote per corrupted voter, whatever they repeat. Replaying every
   message instead would scale every count alike and move no
   plurality. At seed 283 each of these changes moves decisions: a
   tally that counts every copy, a column tally without the line
   filter or keyed by the sender's column, and dropping both filters.
   A reordered send list moves the trace. Recorded while the grid's
   tallies still scanned a list of earlier senders. *)
module Grid = Fba_baselines.Grid_aetoe
module Grid_sync = Fba_sim.Sync_engine.Make (Grid)

let minority_replay (sc : Scenario.t) =
  let corrupted = sc.Scenario.corrupted in
  let act ~round:_ ~observed =
    let outs = ref [] in
    List.iter
      (fun { Fba_sim.Envelope.src; dst; msg } ->
        if not (String.equal sc.Scenario.initial.(src) sc.Scenario.gstring) then
          Bitset.iter
            (fun c ->
              if c <> dst then
                for _ = 1 to 3 do
                  outs := Fba_sim.Envelope.make ~src:c ~dst msg :: !outs
                done)
            corrupted)
      (observed ());
    List.rev !outs
  in
  { Fba_sim.Sync_engine.corrupted; act }

let test_golden_grid_replay () =
  let n = 50 and seed = 283L in
  let sc = Runner.scenario_of_setup Runner.default_setup ~n ~seed in
  let events, buf = jsonl_sink () in
  let cfg =
    Grid.make_config ~n ~initial:(fun i -> sc.Scenario.initial.(i))
      ~str_bits:(8 * String.length sc.Scenario.gstring)
  in
  let r =
    Grid_sync.run ~events ~config:cfg ~n ~seed ~adversary:(minority_replay sc) ~mode:`Rushing
      ~max_rounds:(Grid.total_rounds + 2) ()
  in
  check_traced_golden "grid-replay" ~fp:0xd5a7101e2461a3a8L ~outputs:0xc296599c26f1bc60L
    ~trace:0x2bad868dc1f5e6f6L
    (r.Fba_sim.Sync_engine.metrics, r.Fba_sim.Sync_engine.outputs, buf)

(* The BA composition at n = 64, seed 13, byzantine fraction 0.1: its
   phase 1 traced on the engine exactly as every [Ba] composition runs
   it (rushing, silent corrupted nodes, the same corruption draw), and
   [Ba.run_sync]'s merged metrics and outputs. The trace digest moves
   if a committee's send list is reordered; every correct node leaves
   phase 1 with gstring, so both runs share one outputs digest.
   Recorded while the compositions still lived in [Fba_core]. *)
module Aeba = Fba_aeba.Aeba
module Aeba_sync = Fba_sim.Sync_engine.Make (Aeba)
module Ba = Fba_harness.Ba

let ba_n = 64

let ba_seed = 13L

let ba_byz = 0.1

let test_golden_aeba_phase1 () =
  let n = ba_n and seed = ba_seed in
  let corrupted = Ba.sample_corruption ~n ~seed ~byzantine_fraction:ba_byz in
  let config = Aeba.make_config ~n ~seed ~byzantine_fraction:ba_byz () in
  let events, buf = jsonl_sink () in
  let r =
    Aeba_sync.run ~events ~config ~n ~seed
      ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted)
      ~mode:`Rushing
      ~max_rounds:(Aeba.total_rounds config + 2) ()
  in
  check_traced_golden "aeba-phase1" ~fp:0x5e197d3fdf066320L ~outputs:0xf228a9e61870284fL
    ~trace:0xb599164ec408506fL
    (r.Fba_sim.Sync_engine.metrics, r.Fba_sim.Sync_engine.outputs, buf)

let test_golden_ba_run_sync () =
  let r = Ba.run_sync ~n:ba_n ~seed:ba_seed ~byzantine_fraction:ba_byz () in
  let check what recorded got =
    if not (Int64.equal recorded got) then
      Alcotest.failf "ba-run-sync %s drifted: got 0x%LxL, recorded 0x%LxL" what got recorded
  in
  check "fingerprint" 0x79c32a26b3be6780L (fingerprint r.Ba.metrics);
  check "outputs" 0xf228a9e61870284fL (outputs_digest r.Ba.outputs);
  Alcotest.(check int) "ba-run-sync agreed" 58 r.Ba.agreed

let arb_run =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%Ld" n seed)
    QCheck.Gen.(pair (int_range 24 64) (map Int64.of_int (int_range 1 1000)))

let prop_sync_run_twice =
  QCheck.Test.make ~name:"sync run twice is bit-identical" ~count:10 arb_run (fun (n, seed) ->
      let fp1 = fingerprint (run_sync ~n ~seed (fun sc -> Attacks.cornering sc)) in
      let fp2 = fingerprint (run_sync ~n ~seed (fun sc -> Attacks.cornering sc)) in
      Int64.equal fp1 fp2)

let prop_async_run_twice =
  QCheck.Test.make ~name:"async run twice is bit-identical" ~count:6 arb_run (fun (n, seed) ->
      let fp1 = fingerprint (run_async ~n ~seed (fun sc -> Attacks.async_cornering sc)) in
      let fp2 = fingerprint (run_async ~n ~seed (fun sc -> Attacks.async_cornering sc)) in
      Int64.equal fp1 fp2)

(* The engines deliver straight into the protocol when nothing observes
   the run (no sink, no profiler, a network that loses nothing) and
   through the net's verdicts and the tracing and profiling guards
   otherwise ([Engine_core.Make.delivery]). Each transparency property
   compares an observed run against a plain [Reliable] one in every
   mode, which pins the two paths against each other; the other specs
   that instantiate trivial are checked once, in [prop_trivial_nets]. *)
let other_trivial_nets =
  Fba_sim.Net.[ Drop { rate = 0. }; Partition { from_round = 1; rounds = 0 }; Compose [] ]

let trivial_nets = Fba_sim.Net.Reliable :: other_trivial_nets
let sync_modes = [ `Rushing; `Non_rushing ]

let same_sync (a : _ Fba_sim.Sync_engine.result) (b : _ Fba_sim.Sync_engine.result) =
  Int64.equal (fingerprint a.metrics) (fingerprint b.metrics) && a.outputs = b.outputs

let same_async (a : _ Fba_sim.Async_engine.result) (b : _ Fba_sim.Async_engine.result) =
  Int64.equal (fingerprint a.metrics) (fingerprint b.metrics) && a.outputs = b.outputs

(* Event tracing must be pure observation: a run with a loaded sink
   (tally + JSONL buffer, i.e. every shipped consumer)
   produces bit-identical metrics and the same decision vector as the
   untraced run. *)
let loaded_sink ~n =
  let sink = Fba_sim.Events.create () in
  let tally =
    Fba_sim.Events.Tally.create ~classify:(fun ~kind -> Aer.phase_of_kind kind) ~n ()
  in
  Fba_sim.Events.attach sink (Fba_sim.Events.Tally.consumer tally);
  let buf = Buffer.create 4096 in
  Fba_sim.Events.attach sink (Fba_sim.Events.Jsonl.consumer buf);
  sink

let prop_sync_events_transparent =
  QCheck.Test.make ~name:"sync tracing is pure observation" ~count:10 arb_run
    (fun (n, seed) ->
      let adv sc = Attacks.cornering sc in
      List.for_all
        (fun mode ->
          same_sync
            (run_sync_res ~mode ~n ~seed adv)
            (run_sync_res ~events:(loaded_sink ~n) ~mode ~n ~seed adv))
        sync_modes)

let prop_async_events_transparent =
  QCheck.Test.make ~name:"async tracing is pure observation" ~count:6 arb_run
    (fun (n, seed) ->
      let adv sc = Attacks.async_cornering sc in
      same_async (run_async_res ~n ~seed adv)
        (run_async_res ~events:(loaded_sink ~n) ~n ~seed adv))

(* On every other spec that instantiates trivial, in every mode, a
   traced run (the instrumented path, asking that net for each
   verdict) equals the plain [Reliable] run (the direct path). *)
let prop_trivial_nets =
  QCheck.Test.make ~name:"traced runs on trivial nets equal the plain Reliable run" ~count:3
    arb_run (fun (n, seed) ->
      List.for_all
        (fun mode ->
          let adv sc = Attacks.cornering sc in
          let plain = run_sync_res ~mode ~n ~seed adv in
          List.for_all
            (fun net ->
              same_sync plain (run_sync_res ~events:(loaded_sink ~n) ~net ~mode ~n ~seed adv))
            other_trivial_nets)
        sync_modes
      &&
      let adv sc = Attacks.async_cornering sc in
      let plain = run_async_res ~n ~seed adv in
      List.for_all
        (fun net -> same_async plain (run_async_res ~events:(loaded_sink ~n) ~net ~n ~seed adv))
        other_trivial_nets)

let suites =
  [
    ( "determinism.golden",
      [
        Alcotest.test_case "aer sync silent n=256" `Slow test_golden_sync_silent;
        Alcotest.test_case "aer sync cornering n=256" `Slow test_golden_sync_cornering;
        Alcotest.test_case "aer async cornering n=256" `Slow test_golden_async_cornering;
        Alcotest.test_case "aer sync quorum capture n=128" `Slow test_golden_sync_quorum_capture;
        Alcotest.test_case "packed intern table n=256" `Slow test_golden_intern_table;
        Alcotest.test_case "aer sync cornering non-rushing n=48 (traced)" `Quick
          test_golden_sync_non_rushing;
        Alcotest.test_case "grid minority replay n=50 (traced)" `Quick test_golden_grid_replay;
        Alcotest.test_case "aeba phase 1 n=64 (traced)" `Quick test_golden_aeba_phase1;
        Alcotest.test_case "ba run_sync n=64 merged metrics" `Quick test_golden_ba_run_sync;
      ] );
    ( "determinism.qcheck",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_sync_run_twice;
          prop_async_run_twice;
          prop_sync_events_transparent;
          prop_async_events_transparent;
          prop_trivial_nets;
        ] );
  ]
