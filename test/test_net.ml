(* The pluggable network-condition layer (Fba_sim.Net).

   Three layers of evidence that the layer is safe to carry in the
   default engines:

   - goldens: an engine run with an explicit [Net.Reliable] reproduces
     the recorded pre-refactor fingerprint bit-for-bit, so the layer
     costs nothing when off; traced lossy runs pin where the drops
     land;
   - qcheck properties: drop-rate monotonicity (a delivery lost at rate
     p is lost at every rate q >= p under the same seed — the coupled
     one-draw-per-query contract), partition symmetry (the bisection
     cuts both directions identically), and engine determinism under
     every condition kind;
   - unit tests for the partition window and spec validation. *)

module Net = Fba_sim.Net
module Attacks = Fba_adversary.Aer_attacks
module Runner = Fba_harness.Runner
open Fba_core
module Aer_sync = Fba_sim.Sync_engine.Make (Aer)
module Aer_async = Fba_sim.Async_engine.Make (Aer)

let fingerprint = Test_determinism.fingerprint

let run_sync ?net ~n ~seed adv =
  let sc = Runner.scenario_of_setup Runner.default_setup ~n ~seed in
  let cfg = Aer.config_of_scenario sc in
  Aer_sync.run ~quiet_limit:(Params.quiet_limit sc.Scenario.params) ?net ~config:cfg ~n ~seed
    ~adversary:(adv sc) ~mode:`Rushing ~max_rounds:300 ()

let run_async ?net ~n ~seed adv =
  let sc = Runner.scenario_of_setup Runner.default_setup ~n ~seed in
  let cfg = Aer.config_of_scenario sc in
  Aer_async.run ?net ~config:cfg ~n ~seed ~adversary:(adv sc) ~max_time:4000 ()

let sync_fp res = fingerprint res.Fba_sim.Sync_engine.metrics

let async_fp res = fingerprint res.Fba_sim.Async_engine.metrics

(* --- Goldens: Reliable reproduces the recorded pre-refactor
   execution. The fingerprint is the one test_determinism.ml recorded
   from the seed engines at n=256, seed=7. --- *)

let golden_cornering_fp = 0x13bb2c9332c814d7L

let test_reliable_explicit_golden () =
  let fp = sync_fp (run_sync ~net:Net.Reliable ~n:256 ~seed:7L (fun sc -> Attacks.cornering sc)) in
  if not (Int64.equal fp golden_cornering_fp) then
    Alcotest.failf "explicit Net.Reliable drifted from the recorded golden: 0x%LxL" fp

(* Lossy conditions, pinned on traced runs (see
   Test_determinism.check_traced_golden): the drops must keep landing
   on the same messages. The async golden was recorded while the net
   layer still carried a per-send delay hook, which a drop-only net
   never draws from. *)
let test_sync_drop_golden () =
  Test_determinism.check_traced_golden "sync-drop" ~fp:0x666a55f5972214eL
    ~outputs:0x90e5b9f0410e458dL ~trace:0x5446c313942cc126L
    (Test_determinism.traced_sync ~net:(Net.Drop { rate = 0.05 }) ~mode:`Rushing ~n:48 ~seed:7L
       ())

let test_async_drop_golden () =
  Test_determinism.check_traced_golden "async-drop" ~fp:0x29c650775ffdd973L
    ~outputs:0x27cda61dbfe282L ~trace:0x302d5a4f63caac23L
    (Test_determinism.traced_async ~net:(Net.Drop { rate = 0.03 }) ~n:48 ~seed:7L ())

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

(* A trivial net loses nothing, so the engines may skip its verdicts. *)
let test_trivial () =
  let trivial spec = Net.trivial (Net.instantiate spec ~n:8 ~seed:1L) in
  List.iter
    (fun net -> Alcotest.(check bool) "trivial" true (trivial net))
    Test_determinism.trivial_nets;
  Alcotest.(check bool) "zero-rate drop beside a zero-round partition" true
    (trivial
       (Net.Compose [ Net.Drop { rate = 0. }; Net.Partition { from_round = 3; rounds = 0 } ]));
  List.iter
    (fun net -> Alcotest.(check bool) "not trivial" false (trivial net))
    [
      Net.Drop { rate = 0.01 };
      Net.Partition { from_round = 0; rounds = 1 };
      Net.Compose [ Net.Reliable; Net.Drop { rate = 1. } ];
    ]

(* --- Engine determinism under every condition kind --- *)

let arb_run =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%Ld" n seed)
    QCheck.Gen.(pair (int_range 24 64) (map Int64.of_int (int_range 1 1000)))

let nets_under_test =
  [
    Net.Drop { rate = 0.1 };
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
  QCheck.Test.make ~name:"async run under net conditions is bit-identical" ~count:5 arb_run
    (fun (n, seed) ->
      List.for_all
        (fun net ->
          let fp1 = async_fp (run_async ~net ~n ~seed (fun sc -> Attacks.async_cornering sc)) in
          let fp2 = async_fp (run_async ~net ~n ~seed (fun sc -> Attacks.async_cornering sc)) in
          Int64.equal fp1 fp2)
        nets_under_test)

(* --- Spec validation --- *)

let test_spec_validation () =
  let invalid spec =
    match Net.instantiate spec ~n:8 ~seed:1L with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "rate > 1 rejected" true (invalid (Net.Drop { rate = 1.5 }));
  Alcotest.(check bool) "negative rate rejected" true (invalid (Net.Drop { rate = -0.1 }));
  Alcotest.(check bool) "negative partition length rejected" true
    (invalid (Net.Partition { from_round = 0; rounds = -2 }));
  Alcotest.(check bool) "duplicate kinds rejected" true
    (invalid (Net.Compose [ Net.Drop { rate = 0.1 }; Net.Drop { rate = 0.2 } ]));
  Alcotest.(check bool) "nested compose rejected" true
    (invalid (Net.Compose [ Net.Compose [ Net.Reliable ] ]))

let suites =
  [
    ( "net.golden",
      [
        Alcotest.test_case "explicit Reliable matches recorded golden n=256" `Slow
          test_reliable_explicit_golden;
        Alcotest.test_case "sync cornering, 5% drop n=48 (traced)" `Quick test_sync_drop_golden;
        Alcotest.test_case "async cornering, drop 3% n=48 (traced)" `Quick
          test_async_drop_golden;
      ] );
    ( "net.unit",
      [
        Alcotest.test_case "partition window and sides" `Quick test_partition_window;
        Alcotest.test_case "spec validation" `Quick test_spec_validation;
        Alcotest.test_case "trivial specs" `Quick test_trivial;
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
