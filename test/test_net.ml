(* The pluggable network-condition layer (Fba_sim.Net).

   Three layers of evidence that the layer is safe to carry in the
   default engines:

   - goldens: an engine run with an explicit [Net.Reliable] (and with
     conditions that never fire — sync jitter, a crash scheduled after
     quiescence) reproduces the recorded pre-refactor fingerprints
     bit-for-bit, so the layer costs nothing when off;
   - qcheck properties: drop-rate monotonicity (a delivery lost at rate
     p is lost at every rate q >= p under the same seed — the coupled
     one-draw-per-query contract), partition symmetry (the bisection
     cuts both directions identically), and engine determinism under
     every condition kind;
   - unit tests for crash-stop semantics: victims are selected
     deterministically at the advertised size, receive nothing from the
     crash round on (checked on the event stream), and everything
     before the crash round is delivered. *)

module Net = Fba_sim.Net
module Events = Fba_sim.Events
module Metrics = Fba_sim.Metrics
module Attacks = Fba_adversary.Aer_attacks
module Runner = Fba_harness.Runner
open Fba_core
open Fba_stdx
module Aer_sync = Fba_sim.Sync_engine.Make (Aer)
module Aer_async = Fba_sim.Async_engine.Make (Aer)

let fingerprint = Test_determinism.fingerprint

let run_sync ?events ?net ~n ~seed adv =
  let sc = Runner.scenario_of_setup Runner.default_setup ~n ~seed in
  let cfg = Aer.config_of_scenario sc in
  Aer_sync.run ~quiet_limit:(Params.quiet_limit sc.Scenario.params) ?events ?net ~config:cfg ~n ~seed
    ~adversary:(adv sc) ~mode:`Rushing ~max_rounds:300 ()

let run_async ?events ?net ~n ~seed adv =
  let sc = Runner.scenario_of_setup Runner.default_setup ~n ~seed in
  let cfg = Aer.config_of_scenario sc in
  Aer_async.run ?events ?net ~config:cfg ~n ~seed ~adversary:(adv sc) ~max_time:4000 ()

let sync_fp res = fingerprint res.Fba_sim.Sync_engine.metrics

let async_fp res = fingerprint res.Fba_sim.Async_engine.metrics

(* --- Goldens: Reliable (and never-firing conditions) reproduce the
   recorded pre-refactor executions. The fingerprint is the one
   test_determinism.ml recorded from the seed engines at n=256,
   seed=7. --- *)

let golden_cornering_fp = 0x13bb2c9332c814d7L

let test_reliable_explicit_golden () =
  let fp = sync_fp (run_sync ~net:Net.Reliable ~n:256 ~seed:7L (fun sc -> Attacks.cornering sc)) in
  if not (Int64.equal fp golden_cornering_fp) then
    Alcotest.failf "explicit Net.Reliable drifted from the recorded golden: 0x%LxL" fp

let test_sync_jitter_is_noop () =
  (* The synchronous engine's delivery schedule IS the round structure:
     a jitter-only net must be byte-identical to Reliable. *)
  let fp =
    sync_fp
      (run_sync ~net:(Net.Jitter { extra = 3 }) ~n:256 ~seed:7L (fun sc -> Attacks.cornering sc))
  in
  if not (Int64.equal fp golden_cornering_fp) then
    Alcotest.failf "sync jitter-only net drifted from the Reliable golden: 0x%LxL" fp

let test_late_crash_is_noop () =
  (* A crash scheduled after the run quiesces never fires; everything
     before it must be untouched. *)
  let fp =
    sync_fp
      (run_sync
         ~net:(Net.Crash { at = 1000; fraction = 0.3 })
         ~n:256 ~seed:7L
         (fun sc -> Attacks.cornering sc))
  in
  if not (Int64.equal fp golden_cornering_fp) then
    Alcotest.failf "late-crash net drifted from the Reliable golden: 0x%LxL" fp

(* Lossy conditions, pinned on traced runs (see
   Test_determinism.check_traced_golden): the drops and delays must
   keep landing on the same messages. *)
let test_sync_drop_golden () =
  Test_determinism.check_traced_golden "sync-drop" ~fp:0x666a55f5972214eL
    ~outputs:0x90e5b9f0410e458dL ~trace:0x5446c313942cc126L
    (Test_determinism.traced_sync ~net:(Net.Drop { rate = 0.05 }) ~mode:`Rushing ~n:48 ~seed:7L
       ())

let test_async_drop_jitter_golden () =
  Test_determinism.check_traced_golden "async-drop-jitter" ~fp:0xbc73a70d058bf6f1L
    ~outputs:0x27cda61dbfe282L ~trace:0x189a55a6cc2314c3L
    (Test_determinism.traced_async
       ~net:(Net.Compose [ Net.Drop { rate = 0.03 }; Net.Jitter { extra = 2 } ])
       ~n:48 ~seed:7L ())

(* --- Net-layer qcheck properties --- *)

let arb_queries =
  QCheck.make
    ~print:(fun (n, seed, k) -> Printf.sprintf "n=%d seed=%Ld queries=%d" n seed k)
    QCheck.Gen.(
      triple (int_range 8 128) (map Int64.of_int (int_range 1 10000)) (int_range 1 500))

(* A deterministic query sequence: what matters is that both nets see
   the same one. *)
let query_seq n k f =
  for i = 0 to k - 1 do
    f ~round:(i / n) ~src:(i mod n) ~dst:((i * 7 + 3) mod n)
  done

let prop_drop_monotone =
  QCheck.Test.make ~name:"drop-rate monotonicity: lost at p => lost at q >= p" ~count:100
    (QCheck.pair arb_queries
       (QCheck.pair (QCheck.float_range 0.0 1.0) (QCheck.float_range 0.0 1.0)))
    (fun ((n, seed, k), (a, b)) ->
      let p = min a b and q = max a b in
      let lo = Net.instantiate (Net.Drop { rate = p }) ~n ~seed in
      let hi = Net.instantiate (Net.Drop { rate = q }) ~n ~seed in
      let ok = ref true in
      query_seq n k (fun ~round ~src ~dst ->
          let vl = Net.verdict lo ~round ~src ~dst in
          let vh = Net.verdict hi ~round ~src ~dst in
          match (vl, vh) with
          | Net.Lose _, Net.Pass -> ok := false
          | _ -> ());
      !ok)

let prop_drop_counts_monotone =
  QCheck.Test.make ~name:"drop-rate monotonicity: no more deliveries at higher rate"
    ~count:100
    (QCheck.pair arb_queries
       (QCheck.pair (QCheck.float_range 0.0 1.0) (QCheck.float_range 0.0 1.0)))
    (fun ((n, seed, k), (a, b)) ->
      let p = min a b and q = max a b in
      let delivered rate =
        let net = Net.instantiate (Net.Drop { rate }) ~n ~seed in
        let c = ref 0 in
        query_seq n k (fun ~round ~src ~dst ->
            match Net.verdict net ~round ~src ~dst with Net.Pass -> incr c | Net.Lose _ -> ());
        !c
      in
      delivered q <= delivered p)

let prop_partition_symmetric =
  QCheck.Test.make ~name:"partition symmetry: src/dst swap gives the same verdict" ~count:200
    (QCheck.pair arb_queries (QCheck.pair (QCheck.int_range 0 20) (QCheck.int_range 0 20)))
    (fun ((n, seed, _), (from_round, rounds)) ->
      let net = Net.instantiate (Net.Partition { from_round; rounds }) ~n ~seed in
      let ok = ref true in
      for round = 0 to from_round + rounds + 1 do
        for src = 0 to n - 1 do
          let dst = (src * 5 + 1) mod n in
          if Net.verdict net ~round ~src ~dst <> Net.verdict net ~round ~src:dst ~dst:src then
            ok := false
        done
      done;
      !ok)

let test_partition_window () =
  let n = 10 in
  let net = Net.instantiate (Net.Partition { from_round = 2; rounds = 3 }) ~n ~seed:1L in
  let cross ~round = Net.verdict net ~round ~src:0 ~dst:9 in
  let same ~round = Net.verdict net ~round ~src:0 ~dst:4 in
  Alcotest.(check bool) "before window" true (cross ~round:1 = Net.Pass);
  Alcotest.(check bool) "inside window" true
    (cross ~round:2 = Net.Lose Net.reason_partition
    && cross ~round:4 = Net.Lose Net.reason_partition);
  Alcotest.(check bool) "after window" true (cross ~round:5 = Net.Pass);
  Alcotest.(check bool) "same side never cut" true
    (same ~round:2 = Net.Pass && same ~round:3 = Net.Pass)

(* --- Engine determinism under every condition kind --- *)

let arb_run =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%Ld" n seed)
    QCheck.Gen.(pair (int_range 24 64) (map Int64.of_int (int_range 1 1000)))

let nets_under_test =
  [
    Net.Drop { rate = 0.1 };
    Net.Crash { at = 2; fraction = 0.2 };
    Net.Partition { from_round = 1; rounds = 2 };
    Net.Compose [ Net.Drop { rate = 0.05 }; Net.Partition { from_round = 2; rounds = 1 } ];
  ]

let prop_sync_net_deterministic =
  QCheck.Test.make ~name:"sync run under net conditions is bit-identical when repeated"
    ~count:8 arb_run (fun (n, seed) ->
      List.for_all
        (fun net ->
          let fp1 = sync_fp (run_sync ~net ~n ~seed (fun sc -> Attacks.cornering sc)) in
          let fp2 = sync_fp (run_sync ~net ~n ~seed (fun sc -> Attacks.cornering sc)) in
          Int64.equal fp1 fp2)
        nets_under_test)

let prop_async_net_deterministic =
  QCheck.Test.make ~name:"async run under net conditions (incl. jitter) is bit-identical"
    ~count:5 arb_run (fun (n, seed) ->
      List.for_all
        (fun net ->
          let fp1 = async_fp (run_async ~net ~n ~seed (fun sc -> Attacks.async_cornering sc)) in
          let fp2 = async_fp (run_async ~net ~n ~seed (fun sc -> Attacks.async_cornering sc)) in
          Int64.equal fp1 fp2)
        (Net.Jitter { extra = 3 } :: nets_under_test))

(* --- Crash-stop semantics --- *)

let test_crash_victim_selection () =
  let n = 100 in
  let net = Net.instantiate (Net.Crash { at = 3; fraction = 0.25 }) ~n ~seed:5L in
  match Net.crashed net with
  | None -> Alcotest.fail "crash condition lost at instantiation"
  | Some (at, victims) ->
    Alcotest.(check int) "crash round" 3 at;
    Alcotest.(check int) "victim count = ceil(fraction*n)" 25 (Bitset.cardinal victims);
    (* Same (spec, seed) selects the same victims. *)
    (match Net.crashed (Net.instantiate (Net.Crash { at = 3; fraction = 0.25 }) ~n ~seed:5L) with
    | Some (_, v2) ->
      Alcotest.(check bool) "selection deterministic" true (Bitset.equal victims v2)
    | None -> Alcotest.fail "second instantiation lost the crash condition")

let test_crash_verdicts () =
  let n = 40 in
  let net = Net.instantiate (Net.Crash { at = 2; fraction = 0.2 }) ~n ~seed:9L in
  let at, victims =
    match Net.crashed net with Some x -> x | None -> Alcotest.fail "no crash state"
  in
  let victim =
    match Bitset.to_list victims with v :: _ -> v | [] -> Alcotest.fail "no victims"
  in
  let alive =
    let rec find i = if Bitset.mem victims i then find ((i + 1) mod n) else i in
    find ((victim + 1) mod n)
  in
  Alcotest.(check bool) "before crash round: delivered" true
    (Net.verdict net ~round:(at - 1) ~src:alive ~dst:victim = Net.Pass);
  Alcotest.(check bool) "at crash round: lost" true
    (Net.verdict net ~round:at ~src:alive ~dst:victim = Net.Lose Net.reason_crash);
  Alcotest.(check bool) "long after: still lost" true
    (Net.verdict net ~round:(at + 100) ~src:alive ~dst:victim = Net.Lose Net.reason_crash);
  Alcotest.(check bool) "non-victims unaffected" true
    (Net.verdict net ~round:(at + 100) ~src:victim ~dst:alive = Net.Pass)

(* Engine-level semantics, checked on the event stream: from the crash
   round on, no Deliver event targets a victim, every net-crash loss
   targets a victim at or after the crash round, and deliveries to
   victims before the crash round exist (the condition really is
   scheduled, not immediate). *)
let test_crash_stop_engine_semantics () =
  let n = 48 and seed = 11L in
  let net = Net.Crash { at = 2; fraction = 0.25 } in
  let victims =
    match Net.crashed (Net.instantiate net ~n ~seed) with
    | Some (_, v) -> v
    | None -> Alcotest.fail "no crash state"
  in
  let late_deliver_to_victim = ref 0 in
  let early_deliver_to_victim = ref 0 in
  let crash_drops = ref 0 in
  let mistargeted_crash_drops = ref 0 in
  let sink = Events.create () in
  Events.attach sink (function
    | Events.Deliver { round; dst; _ } when Bitset.mem victims dst ->
      if round >= 2 then incr late_deliver_to_victim else incr early_deliver_to_victim
    | Events.Drop { round; dst; reason; _ } when reason = Net.reason_crash ->
      if not (round >= 2 && Bitset.mem victims dst) then incr mistargeted_crash_drops;
      incr crash_drops
    | _ -> ());
  let res = run_sync ~events:sink ~net ~n ~seed Attacks.silent in
  Alcotest.(check int) "no deliveries to crashed receivers from the crash round" 0
    !late_deliver_to_victim;
  Alcotest.(check int) "net-crash drops only target victims from the crash round" 0
    !mistargeted_crash_drops;
  Alcotest.(check bool) "victims received traffic before crashing" true
    (!early_deliver_to_victim > 0);
  Alcotest.(check bool) "the crash actually dropped messages" true (!crash_drops > 0);
  (* The run itself must terminate despite the starved victims. *)
  Alcotest.(check bool) "run terminated before the round cap" true
    (res.Fba_sim.Sync_engine.rounds_used < 300)

(* --- Spec validation --- *)

let test_spec_validation () =
  let invalid spec =
    match Net.instantiate spec ~n:8 ~seed:1L with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "rate > 1 rejected" true (invalid (Net.Drop { rate = 1.5 }));
  Alcotest.(check bool) "negative rate rejected" true (invalid (Net.Drop { rate = -0.1 }));
  Alcotest.(check bool) "negative crash round rejected" true
    (invalid (Net.Crash { at = -1; fraction = 0.5 }));
  Alcotest.(check bool) "negative partition length rejected" true
    (invalid (Net.Partition { from_round = 0; rounds = -2 }));
  Alcotest.(check bool) "duplicate kinds rejected" true
    (invalid (Net.Compose [ Net.Drop { rate = 0.1 }; Net.Drop { rate = 0.2 } ]));
  Alcotest.(check bool) "nested compose rejected" true
    (invalid (Net.Compose [ Net.Compose [ Net.Reliable ] ]));
  Alcotest.(check bool) "negative jitter rejected" true (invalid (Net.Jitter { extra = -1 }))

(* --- Async jitter: reliable but stretched --- *)

let test_async_jitter_stretches_time () =
  let n = 48 and seed = 3L in
  let plain = run_async ~n ~seed (fun sc -> Attacks.async_cornering sc) in
  let jittered =
    run_async ~net:(Net.Jitter { extra = 4 }) ~n ~seed (fun sc -> Attacks.async_cornering sc)
  in
  (* Jitter loses nothing: the same number of correct nodes decide. *)
  Alcotest.(check int) "same decisions as reliable"
    (Metrics.decided_count plain.Fba_sim.Async_engine.metrics)
    (Metrics.decided_count jittered.Fba_sim.Async_engine.metrics);
  Alcotest.(check bool) "jitter does not speed the run up" true
    (jittered.Fba_sim.Async_engine.time_used >= plain.Fba_sim.Async_engine.time_used)

let suites =
  [
    ( "net.golden",
      [
        Alcotest.test_case "explicit Reliable matches recorded golden n=256" `Slow
          test_reliable_explicit_golden;
        Alcotest.test_case "sync jitter-only net is a no-op (golden)" `Slow
          test_sync_jitter_is_noop;
        Alcotest.test_case "crash after quiescence is a no-op (golden)" `Slow
          test_late_crash_is_noop;
        Alcotest.test_case "sync cornering, 5% drop n=48 (traced)" `Quick test_sync_drop_golden;
        Alcotest.test_case "async cornering, drop + jitter n=48 (traced)" `Quick
          test_async_drop_jitter_golden;
      ] );
    ( "net.unit",
      [
        Alcotest.test_case "partition window and sides" `Quick test_partition_window;
        Alcotest.test_case "crash victim selection" `Quick test_crash_victim_selection;
        Alcotest.test_case "crash verdicts" `Quick test_crash_verdicts;
        Alcotest.test_case "crash-stop engine semantics (event stream)" `Quick
          test_crash_stop_engine_semantics;
        Alcotest.test_case "spec validation" `Quick test_spec_validation;
        Alcotest.test_case "async jitter stretches but loses nothing" `Quick
          test_async_jitter_stretches_time;
      ] );
    ( "net.qcheck",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_drop_monotone;
          prop_drop_counts_monotone;
          prop_partition_symmetric;
          prop_sync_net_deterministic;
          prop_async_net_deterministic;
        ] );
  ]
