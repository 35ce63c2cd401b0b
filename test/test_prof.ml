(* The run profiler (Fba_sim.Prof) and the Telemetry export seam.

   The profiler's two contracts:

   - transparency: attaching a profiler must not change the execution.
     qcheck runs the same scenario with and without a profiler (sync
     and async) and demands identical metrics fingerprints, outputs
     and event streams;
   - exact accounting: consecutive snapshots partition the run's
     timeline, so the (round, slot) cell matrix must sum — in integer
     nanoseconds and words — to the run totals, and the per-slot hit
     counters must agree with the event stream's Deliver counts per
     message kind. A handler slot's words are exactly what its
     handlers allocated, minor and major heap alike.

   Telemetry gets a golden: the document for a fixed run is pinned
   byte for byte (profile omitted — wall-clock is nondeterministic),
   ASCII, and carries the versioned envelope. *)

module Prof = Fba_sim.Prof
module Events = Fba_sim.Events
module Metrics = Fba_sim.Metrics
module Attacks = Fba_adversary.Aer_attacks
module Runner = Fba_harness.Runner
module Telemetry = Fba_harness.Telemetry
open Fba_core
module Aer_sync = Fba_sim.Sync_engine.Make (Aer)
module Aer_async = Fba_sim.Async_engine.Make (Aer)

let fingerprint = Test_determinism.fingerprint

let run_sync ?events ?prof ?(mode = `Rushing) ~n ~seed adv =
  let sc = Runner.scenario_of_setup Runner.default_setup ~n ~seed in
  let cfg = Aer.config_of_scenario sc in
  Aer_sync.run ~quiet_limit:(Params.quiet_limit sc.Scenario.params) ?events ?prof ~config:cfg ~n
    ~seed ~adversary:(adv sc) ~mode ~max_rounds:300 ()

let run_async ?events ?prof ~n ~seed adv =
  let sc = Runner.scenario_of_setup Runner.default_setup ~n ~seed in
  let cfg = Aer.config_of_scenario sc in
  Aer_async.run ?events ?prof ~config:cfg ~n ~seed ~adversary:(adv sc) ~max_time:4000 ()

let arb_run =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%Ld" n seed)
    QCheck.Gen.(pair (int_range 24 64) (map Int64.of_int (int_range 1 1000)))

(* --- Transparency: profiling on vs off is byte-identical ---

   With a sink attached on both sides, the event streams must match
   too. Without one, a profiled run must also equal the plain run,
   which takes the engines' direct delivery path; sync runs are checked
   in both modes. *)

let collect_events run =
  let evs = ref [] in
  let sink = Events.create () in
  Events.attach sink (fun ev -> evs := ev :: !evs);
  let res = run ~events:sink in
  (res, List.rev !evs)

let prop_sync_transparent =
  QCheck.Test.make ~name:"sync: attaching a profiler changes nothing observable" ~count:15
    arb_run (fun (n, seed) ->
      List.for_all
        (fun mode ->
          let run ?events ?prof () = run_sync ?events ?prof ~mode ~n ~seed Attacks.cornering in
          let base, base_ev = collect_events (fun ~events -> run ~events ()) in
          let profiled, prof_ev =
            collect_events (fun ~events -> run ~events ~prof:(Prof.create ()) ())
          in
          Test_determinism.same_sync base profiled
          && base_ev = prof_ev
          && Test_determinism.same_sync (run ()) (run ~prof:(Prof.create ()) ()))
        Test_determinism.sync_modes)

let prop_async_transparent =
  QCheck.Test.make ~name:"async: attaching a profiler changes nothing observable" ~count:10
    arb_run (fun (n, seed) ->
      let run ?events ?prof () =
        run_async ?events ?prof ~n ~seed (fun sc -> Attacks.async_cornering sc)
      in
      let base, base_ev = collect_events (fun ~events -> run ~events ()) in
      let profiled, prof_ev =
        collect_events (fun ~events -> run ~events ~prof:(Prof.create ()) ())
      in
      Test_determinism.same_async base profiled
      && base_ev = prof_ev
      && Test_determinism.same_async (run ()) (run ~prof:(Prof.create ()) ()))

(* --- Exact accounting: cells partition the run totals --- *)

let sums_to_totals prof =
  let rounds = Prof.rounds prof and slots = Prof.slots prof in
  let w = ref 0 and a = ref 0 and rw = ref 0 and ra = ref 0 and sw = ref 0 and sa = ref 0 in
  for r = 0 to rounds - 1 do
    rw := !rw + Prof.round_wall prof r;
    ra := !ra + Prof.round_alloc prof r;
    for s = 0 to slots - 1 do
      w := !w + Prof.wall prof ~round:r ~slot:s;
      a := !a + Prof.alloc prof ~round:r ~slot:s
    done
  done;
  for s = 0 to slots - 1 do
    sw := !sw + Prof.slot_wall prof s;
    sa := !sa + Prof.slot_alloc prof s
  done;
  Prof.check prof
  && !w = Prof.total_wall_ns prof
  && !a = Prof.total_alloc_words prof
  && !rw = Prof.total_wall_ns prof
  && !ra = Prof.total_alloc_words prof
  && !sw = Prof.total_wall_ns prof
  && !sa = Prof.total_alloc_words prof

let prop_sync_sums =
  QCheck.Test.make ~name:"sync: profiler cells sum exactly to run totals" ~count:15 arb_run
    (fun (n, seed) ->
      let prof = Prof.create () in
      ignore (run_sync ~prof ~n ~seed Attacks.cornering);
      sums_to_totals prof)

let prop_async_sums =
  QCheck.Test.make ~name:"async: profiler cells sum exactly to run totals" ~count:10 arb_run
    (fun (n, seed) ->
      let prof = Prof.create () in
      ignore (run_async ~prof ~n ~seed (fun sc -> Attacks.async_cornering sc));
      sums_to_totals prof)

(* --- Hit counters agree with the event stream --- *)

let prop_hits_match_delivers =
  QCheck.Test.make ~name:"per-tag hits = Deliver events per kind (and per round)" ~count:15
    arb_run (fun (n, seed) ->
      let prof = Prof.create () in
      let _, evs =
        collect_events (fun ~events -> run_sync ~events ~prof ~n ~seed Attacks.cornering)
      in
      let slots = Prof.slots prof in
      (* Deliver counts from the event stream, keyed the same way:
         kind string -> slot index via the profiler's own slot table. *)
      let slot_of_kind k =
        let found = ref (-1) in
        for s = 0 to slots - 1 do
          if Prof.slot_name prof s = k then found := s
        done;
        !found
      in
      let by_slot = Array.make slots 0 in
      let by_cell = Hashtbl.create 64 in
      List.iter
        (function
          | Events.Deliver { round; kind; _ } ->
            let s = slot_of_kind kind in
            if s < 0 then failwith ("Deliver kind not in profiler slots: " ^ kind);
            by_slot.(s) <- by_slot.(s) + 1;
            Hashtbl.replace by_cell (round, s)
              (1 + Option.value ~default:0 (Hashtbl.find_opt by_cell (round, s)))
          | _ -> ())
        evs;
      let slot_ok = ref true in
      for s = 0 to slots - 1 do
        if Prof.slot_hits prof s <> by_slot.(s) then slot_ok := false
      done;
      let cell_ok = ref true in
      for r = 0 to Prof.rounds prof - 1 do
        for s = 0 to slots - 1 do
          let expect = Option.value ~default:0 (Hashtbl.find_opt by_cell (r, s)) in
          if Prof.hits prof ~round:r ~slot:s <> expect then cell_ok := false
        done
      done;
      !slot_ok && !cell_ok)

(* --- Exact words per handler --- *)

(* Toy protocol whose handlers allocate one fixed block per delivery
   and nothing else: [Small] a 4-word block (minor heap), [Big] a
   301-word block (above Max_young_wosize, so straight into the major
   heap). Every node sends one of each to every node for three rounds;
   [receive_into] keeps the engine from allocating a list per
   delivery. *)
module Alloc_toy = struct
  type config = { n : int }
  type msg = Small | Big
  type state = unit

  let compile _ = ()
  let small_words = 4
  let big_words = 301
  let sends cfg = List.concat_map (fun d -> [ (d, Small); (d, Big) ]) (List.init cfg.n Fun.id)
  let init cfg _ = ((), sends cfg)
  let on_round cfg () ~round = if round < 3 then sends cfg else []

  let receive _ () ~round:_ ~src:_ msg ~emit:_ =
    match msg with
    | Small -> ignore (Sys.opaque_identity (Array.make (small_words - 1) 0))
    | Big -> ignore (Sys.opaque_identity (Array.make (big_words - 1) 0))

  let on_receive cfg st ~round ~src msg =
    receive cfg st ~round ~src msg ~emit:(fun _ _ -> ());
    []

  let receive_into = Some receive
  let output () = None
  let msg_bits _ _ = 8
  let msg_tags _ = [| "Small"; "Big" |]
  let msg_tag _ = function Small -> 0 | Big -> 1
end

module Toy_sync = Fba_sim.Sync_engine.Make (Alloc_toy)
module Toy_async = Fba_sim.Async_engine.Make (Alloc_toy)

let test_handler_words_exact () =
  let n = 6 in
  let corrupted = Fba_stdx.Bitset.create n in
  let check engine prof =
    List.iter
      (fun (slot, words) ->
        let hits = Prof.slot_hits prof slot in
        Alcotest.(check bool) (engine ^ " slot hit") true (hits > 0);
        Alcotest.(check int)
          (Printf.sprintf "%s %s words = %d x %d hits" engine (Prof.slot_name prof slot) words hits)
          (words * hits) (Prof.slot_alloc prof slot))
      [ (0, Alloc_toy.small_words); (1, Alloc_toy.big_words) ];
    Alcotest.(check bool) (engine ^ " cells sum to totals") true (sums_to_totals prof)
  in
  let prof = Prof.create () in
  ignore
    (Toy_sync.run ~prof ~config:{ Alloc_toy.n } ~n ~seed:1L
       ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted)
       ~mode:`Rushing ~max_rounds:8 ());
  check "sync" prof;
  ignore
    (Toy_async.run ~prof ~config:{ Alloc_toy.n } ~n ~seed:1L
       ~adversary:(Fba_sim.Async_engine.null_adversary ~corrupted)
       ~max_time:8 ());
  check "async" prof

(* --- Prof unit details --- *)

let test_engine_slot_is_last () =
  let prof = Prof.create () in
  Alcotest.(check bool) "idle profiler not started" false (Prof.started prof);
  ignore (run_sync ~prof ~n:32 ~seed:5L Attacks.silent);
  Alcotest.(check bool) "started after a run" true (Prof.started prof);
  Alcotest.(check string) "trailing slot is engine" "engine"
    (Prof.slot_name prof (Prof.slots prof - 1));
  (* AER's tag table is the packed wire-tag numbering. *)
  Alcotest.(check string) "slot 1 is Push" "Push" (Prof.slot_name prof 1);
  Alcotest.(check int) "engine slot counts no handler hits" 0
    (Prof.slot_hits prof (Prof.slots prof - 1))

let test_prof_reuse_resets () =
  let prof = Prof.create () in
  ignore (run_sync ~prof ~n:48 ~seed:5L Attacks.cornering);
  let big_hits = Prof.slot_hits prof 4 in
  ignore (run_sync ~prof ~n:24 ~seed:6L Attacks.silent);
  (* Re-arming replaced the matrix: totals are the new run's, not a
     running sum (hits strictly smaller at a third the size). *)
  Alcotest.(check bool) "second run replaces the first" true (Prof.slot_hits prof 4 < big_hits);
  Alcotest.(check bool) "still sums exactly" true (sums_to_totals prof)

(* --- Telemetry --- *)

let stable_run ?config () =
  let sc = Runner.scenario_of_setup Runner.default_setup ~n:32 ~seed:11L in
  Runner.aer_sync ?config ~adversary:Attacks.silent sc

let contains doc sub =
  let n = String.length doc and m = String.length sub in
  let rec go i = i + m <= n && (String.sub doc i m = sub || go (i + 1)) in
  go 0

let test_telemetry_schema () =
  let doc = Telemetry.to_json (stable_run ()) in
  let contains = contains doc in
  Alcotest.(check bool) "versioned envelope" true
    (contains (Printf.sprintf "{\"telemetry_version\":%d,\"counters\":{" Telemetry.version));
  List.iter
    (fun key -> Alcotest.(check bool) key true (contains (Printf.sprintf "\"%s\"" key)))
    [
      "counters"; "gauges"; "dists"; "prof"; "n"; "rounds"; "decision_round"; "sent_bits";
      "recv_bits"; "agreed_fraction"; "peak_mailbox_words";
    ];
  Alcotest.(check bool) "no phases array" false (contains "\"phases\"");
  Alcotest.(check bool) "no profiler attached -> prof is null" true (contains "\"prof\":null");
  String.iter
    (fun c ->
      if Char.code c >= 128 then Alcotest.failf "non-ASCII byte %02x in document" (Char.code c))
    doc

(* The stable run's document, byte for byte. Recorded from the
   version 1 writer, with only the version bumped and its always-empty
   "phases" array removed. *)
let stable_run_document =
  {|{"telemetry_version":2,"counters":{"n":32,"rounds":6,"wrong_decisions":0,"total_bits_all":2963298,"max_sent_bits":169935,"max_recv_bits":158359,"push_max_messages":18,"candidate_sum":30,"candidate_max":2,"gstring_missing":0,"peak_mailbox_words":36864},"gauges":{"decided_fraction":1.0,"agreed_fraction":1.0,"bits_per_node":92603.0625,"msgs_per_node":716.0625,"load_imbalance":1.6740148694243835},"dists":{"decision_round":{"count":29,"p50":4,"p95":4,"p99":5,"max":5},"sent_bits":{"count":29,"p50":98199,"p95":143358,"p99":169935,"max":169935},"recv_bits":{"count":29,"p50":92111,"p95":118404,"p99":158359,"max":158359}},"prof":null}|}

let test_telemetry_golden () =
  Alcotest.(check string) "stable run document" stable_run_document
    (Telemetry.to_json (stable_run ()));
  (* A profiler attached to no run exports null, like no profiler. *)
  Alcotest.(check string) "idle profiler" stable_run_document
    (Telemetry.to_json ~prof:(Prof.create ()) (stable_run ()));
  (* A run capped before any decision exports null percentiles. *)
  let capped = { Runner.default_config with Runner.max_rounds = 1 } in
  Alcotest.(check bool) "empty distribution" true
    (contains
       (Telemetry.to_json (stable_run ~config:capped ()))
       {|"decision_round":{"count":0,"p50":null,"p95":null,"p99":null,"max":null}|})

let test_telemetry_with_prof () =
  let prof = Prof.create () in
  let config = { Runner.default_config with Runner.prof = Some prof } in
  let contains = contains (Telemetry.to_json ~prof (stable_run ~config ())) in
  Alcotest.(check bool) "prof section present" true (contains "\"prof\":{\"rounds\":");
  Alcotest.(check bool) "slots array present" true (contains "\"slots\":[{\"name\":\"invalid\"")

let suites =
  [
    ( "prof",
      [
        Alcotest.test_case "engine slot layout" `Quick test_engine_slot_is_last;
        Alcotest.test_case "reuse re-arms" `Quick test_prof_reuse_resets;
        Alcotest.test_case "handler words exact" `Quick test_handler_words_exact;
      ] );
    ( "prof.qcheck",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_sync_transparent;
          prop_async_transparent;
          prop_sync_sums;
          prop_async_sums;
          prop_hits_match_delivers;
        ] );
    ( "telemetry",
      [
        Alcotest.test_case "schema" `Quick test_telemetry_schema;
        Alcotest.test_case "golden document" `Quick test_telemetry_golden;
        Alcotest.test_case "prof section" `Quick test_telemetry_with_prof;
      ] );
  ]
