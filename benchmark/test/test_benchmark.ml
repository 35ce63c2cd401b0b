(* The benchmark's own tests: its instance runners run exactly the
   executions of the public entry points, tracing does not change them,
   failures are classified as screening expects, spans nest, and the
   statistics match hand-computed values. *)

open Fba_benchmark
module Runner = Fba_harness.Runner
module Service = Fba_harness.Service
module Attacks = Fba_adversary.Aer_attacks

let n = 64
let seeds = [ 3L; 17L; 101L ]
let fp = Alcotest.testable (fun ppf v -> Format.fprintf ppf "0x%016Lx" v) Int64.equal

let scenario seed = Runner.scenario_of_setup Instance.setup ~n ~seed

let direct ?(traced = false) kind seed = Instance.run kind ~traced ~n ~inst:0 ~seed

let public_fingerprints () =
  List.iter
    (fun seed ->
      let sync = Runner.aer_sync ~adversary:(fun sc -> Attacks.cornering sc) (scenario seed) in
      Alcotest.check fp "aer sync" (Service.fingerprint sync.Runner.metrics)
        (direct Instance.Aer_sync seed).Instance.fingerprint;
      let async, _ =
        Runner.aer_async ~adversary:(fun sc -> Attacks.async_cornering sc) (scenario seed)
      in
      Alcotest.check fp "aer async" (Service.fingerprint async.Runner.metrics)
        (direct Instance.Aer_async seed).Instance.fingerprint;
      let grid = (direct Instance.Grid_sync seed).Instance.observation in
      Alcotest.(check bool) "grid observation" true (Some (Runner.run_grid (scenario seed)) = grid))
    seeds;
  List.iter
    (fun stream_seed ->
      let s = Instance.service ~traced:false ~n ~seed:stream_seed ~instances:3 in
      Array.iteri
        (fun k (r : Service.instance_result) ->
          Alcotest.check fp "service instance" r.Service.fingerprint
            (direct Instance.Aer_sync (Service.instance_seed stream_seed k)).Instance.fingerprint)
        s.Service.results)
    seeds

let traced_is_untraced () =
  let fingerprints ~traced seed =
    List.map
      (fun kind -> (direct ~traced kind seed).Instance.fingerprint)
      [ Instance.Aer_sync; Aer_async; Grid_sync ]
    @
    let s = Instance.service ~traced ~n ~seed ~instances:3 in
    Array.to_list
      (Array.map (fun (r : Service.instance_result) -> r.Service.fingerprint) s.Service.results)
  in
  let untraced = List.map (fingerprints ~traced:false) seeds in
  Spans.start ();
  let traced = List.map (fingerprints ~traced:true) seeds in
  Spans.stop ();
  Alcotest.(check (list (list fp))) "traced runs" untraced traced;
  let roots = Spans.instances () in
  (* 3 seeds × (3 direct kinds + 1 service run) *)
  Alcotest.(check int) "roots" 12 (List.length roots);
  List.iter
    (fun r -> Alcotest.(check bool) "no self time negative" true (Spans.check_root r))
    roots;
  let tot = Spans.totals roots in
  let calls name = match Hashtbl.find_opt tot name with Some (c, _, _) -> c | None -> 0 in
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " recorded") true (calls name > 0))
    [
      "runner.scenario"; "aer.config"; "compiled.build"; "sync_engine.start"; "aer.init";
      "sync_engine.step"; "sync_engine.finish"; "aer.receive.Fw1"; "adversary.act";
      "async_engine.run"; "adversary.delay"; "adversary.observe"; "grid.receive";
    ]

(* Screening passes over "termination" only, so a cap hit must not read
   as one. *)
let verdicts_of_outputs () =
  let sc = scenario 3L in
  let g = sc.Fba_core.Scenario.gstring in
  let corrupted i = Fba_stdx.Bitset.mem sc.Fba_core.Scenario.corrupted i in
  let correct = List.find (fun i -> not (corrupted i)) (List.init n Fun.id) in
  let one v = Array.init n (fun i -> if i = correct then v else Some g) in
  let v ?(capped = false) outputs = Instance.verdict sc ~outputs ~capped in
  let check = Alcotest.(check (option string)) in
  check "all decide gstring" None (v (one (Some g)));
  check "one undecided" (Some "termination") (v (one None));
  check "undecided at the cap" (Some "cap") (v ~capped:true (one None));
  check "one differs" (Some "agreement") (v (one (Some "x")));
  check "all on another string" (Some "validity") (v (Array.make n (Some "x")))

let spans_exact () =
  Spans.start ();
  let v =
    Spans.root ~inst:7 "instance" (fun () ->
        Spans.span "a" (fun () ->
            for _ = 1 to 3 do
              Spans.enter "b";
              Spans.leave ()
            done);
        Spans.span_each "c" (fun () -> 42))
  in
  Spans.stop ();
  Alcotest.(check int) "value passes through" 42 v;
  match Spans.instances () with
  | [ root ] ->
    Alcotest.(check bool) "nesting" true (Spans.check_root root);
    let outlasts = { root with Spans.kids = [ { root with Spans.ns = root.Spans.ns + 1 } ] } in
    Alcotest.(check bool) "a child outlasting its parent" false (Spans.check_root outlasts);
    Alcotest.(check int) "inst" 7 root.Spans.inst;
    let tot = Spans.totals [ root ] in
    let calls name = match Hashtbl.find_opt tot name with Some (c, _, _) -> c | None -> 0 in
    Alcotest.(check (list int))
      "calls" [ 1; 1; 3; 1 ]
      (List.map calls [ "instance"; "a"; "b"; "c" ])
  | _ -> Alcotest.fail "one root expected"

let close = Alcotest.float 1e-12

let quantiles () =
  Alcotest.check close "median odd" 2.0 (Quantile.median [| 3.; 1.; 2. |]);
  Alcotest.check close "median even" 2.5 (Quantile.median [| 4.; 1.; 3.; 2. |]);
  let ten = Array.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p90 interpolates" 9.1 (Quantile.percentile ten 90.0);
  Alcotest.check close "p50 of ten" 5.5 (Quantile.percentile ten 50.0);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Quantile.quartiles ten in
  Alcotest.(check (list close)) "quartiles of 1..10" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] *)
  let q1, q2, q3 = Quantile.quartiles [| 2.; 1. |] in
  Alcotest.(check (list close)) "quartiles of two" [ 0.75; 1.5; 2.25 ] [ q1; q2; q3 ]

let verdicts () =
  let side ?(per_rep = []) med q1 q3 = { Compare.med; q1; q3; per_rep } in
  let v b f better = Compare.verdict_name (Compare.judge better ~bound:0.10 b f) in
  let tight m = side m (m *. 0.99) (m *. 1.01) in
  Alcotest.(check string) "within bound" "ok" (v (tight 100.) (tight 95.) Suite.Higher);
  Alcotest.(check string) "slower" "regressed" (v (tight 100.) (tight 85.) Suite.Higher);
  Alcotest.(check string) "more latency" "regressed" (v (tight 10.) (tight 12.) Suite.Lower);
  Alcotest.(check string)
    "wide spread" "unresolved"
    (v (side 100. 80. 120.) (tight 85.) Suite.Higher);
  Alcotest.(check string)
    "wide but every rep better" "ok"
    (v
       (side ~per_rep:[ 80.; 120. ] 100. 80. 120.)
       (side ~per_rep:[ 130.; 140. ] 135. 130. 140.)
       Suite.Higher);
  Alcotest.(check string) "exact moved" "changed" (v (tight 100.) (tight 112.) Suite.Exact)

(* BENCHMARK.json must list exactly the workloads and result-line metrics
   the code runs. *)
let manifest () =
  let j = Json.parse (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) in
  let names key field =
    match Json.member key j with
    | Some (Json.Arr l) ->
      List.map (fun o -> match Json.member field o with Some (Json.Str s) -> s | _ -> "?") l
    | _ -> []
  in
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun (w : Suite.workload) -> w.Suite.name) Suite.workloads)
    (names "workloads" "name");
  Alcotest.(check (list string))
    "end_to_end"
    (List.map (fun (m : Suite.metric) -> m.Suite.name) Suite.result_line_metrics)
    (names "end_to_end" "name");
  Alcotest.(check (list string)) "per_layer" Suite.layer_names (names "per_layer" "name");
  Alcotest.(check (list string))
    "per_layer units" (List.map Suite.layer_unit Suite.layer_names) (names "per_layer" "unit");
  match Json.member "end_to_end" j with
  | Some (Json.Arr l) ->
    List.iter2
      (fun o (m : Suite.metric) ->
        Alcotest.(check (option (float 0.0)))
          (m.Suite.name ^ " bound") (Some m.Suite.bound)
          (Option.bind (Json.member "bound" o) Json.to_float);
        Alcotest.(check (option string))
          (m.Suite.name ^ " unit") (Some m.Suite.unit)
          (match Json.member "unit" o with Some (Json.Str s) -> Some s | _ -> None))
      l Suite.result_line_metrics
  | _ -> Alcotest.fail "end_to_end missing"

let json_roundtrip () =
  let v =
    Json.Obj [ ("a", Json.Arr [ Json.Int 1; Json.Num 0.1; Json.Null ]); ("b\"", Json.Bool true) ]
  in
  Alcotest.(check bool) "roundtrip" true (Json.parse (Json.to_string v) = v)

let () =
  Alcotest.run "benchmark"
    [
      ( "instances",
        [
          Alcotest.test_case "public path fingerprints" `Quick public_fingerprints;
          Alcotest.test_case "traced = untraced" `Quick traced_is_untraced;
          Alcotest.test_case "failure verdicts" `Quick verdicts_of_outputs;
        ] );
      ( "spans",
        [ Alcotest.test_case "self-time accounting" `Quick spans_exact ] );
      ( "stats",
        [
          Alcotest.test_case "median, percentile, quartiles" `Quick quantiles;
          Alcotest.test_case "compare verdicts" `Quick verdicts;
        ] );
      ( "files",
        [
          Alcotest.test_case "BENCHMARK.json matches the code" `Quick manifest;
          Alcotest.test_case "json roundtrip" `Quick json_roundtrip;
        ] );
    ]
