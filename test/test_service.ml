(* Agreement-as-a-service: the instance stream must be a pure storage
   optimisation.

   - qcheck property: every instance of an epoch-reset stream is
     trace-fingerprint-identical to a fresh one-shot Runner run of the
     same derived seed — across pipeline widths and worker-domain
     counts.
   - unit suite for the reset entry points themselves: no stale
     interner ids, sampler rows or mailbox contents survive an epoch
     boundary. *)

module Runner = Fba_harness.Runner
module Service = Fba_harness.Service
module Attacks = Fba_adversary.Aer_attacks
module Engine_core = Fba_sim.Engine_core
open Fba_core
open Fba_stdx

(* --- qcheck: stream vs one-shot fingerprint identity --- *)

let one_shot_fp ~config ~setup ~n ~seed =
  let sc = Runner.scenario_of_setup setup ~n ~seed in
  Service.fingerprint (Runner.aer_sync ~config ~adversary:Attacks.cornering sc).Runner.metrics

let case_gen =
  QCheck2.Gen.(
    let* n = oneofl [ 32; 48; 64 ] in
    let* instances = int_range 2 6 in
    let* width = oneofl [ 1; 2; 4 ] in
    let* jobs = oneofl [ 1; 2; 4 ] in
    let* seed = int_range 1 10_000 in
    return (n, instances, width, jobs, seed))

let prop_stream_matches_oneshot =
  QCheck2.Test.make ~count:6 ~name:"service.stream = fresh one-shot runs" case_gen
    (fun (n, instances, width, jobs, seed) ->
      let setup = Runner.default_setup in
      let config = Runner.default_config in
      let stream =
        { Service.setup;
          config;
          n;
          stream_seed = Int64.of_int seed;
          instances;
          width;
          jobs }
      in
      let s = Service.run ~stream ~adversary:Attacks.cornering () in
      Array.length s.Service.results = instances
      && Array.for_all
           (fun (r : Service.instance_result) ->
             Int64.equal r.Service.fingerprint
               (one_shot_fp ~config ~setup ~n ~seed:r.Service.seed))
           s.Service.results)

(* Latency aside, a stream's deterministic face must not depend on how
   it was scheduled: same instances, any width/jobs split. *)
let strip (s : Service.summary) =
  Array.map
    (fun (r : Service.instance_result) ->
      (r.Service.index, r.Service.seed, r.Service.fingerprint, r.Service.rounds_used,
       r.Service.decided, r.Service.agreed))
    s.Service.results

let prop_schedule_invariance =
  QCheck2.Test.make ~count:4 ~name:"service.results independent of width and jobs"
    QCheck2.Gen.(
      let* seed = int_range 1 10_000 in
      let* instances = int_range 3 7 in
      return (seed, instances))
    (fun (seed, instances) ->
      let stream w j =
        { Service.default_stream with
          Service.n = 48;
          stream_seed = Int64.of_int seed;
          instances;
          width = w;
          jobs = j }
      in
      let base = strip (Service.run ~stream:(stream 1 1) ~adversary:Attacks.cornering ()) in
      List.for_all
        (fun (w, j) ->
          strip (Service.run ~stream:(stream w j) ~adversary:Attacks.cornering ()) = base)
        [ (3, 1); (2, 2); (4, 4) ])

(* --- unit: inputs the stream cannot honour are refused --- *)

let small_stream = { Service.default_stream with Service.n = 32; instances = 1 }

let test_width_refused () =
  Alcotest.check_raises "width 0" (Invalid_argument "Service.run: width < 1") (fun () ->
      ignore
        (Service.run ~stream:{ small_stream with Service.width = 0 } ~adversary:Attacks.cornering
           ()))

let test_observers_refused () =
  let with_config config () =
    ignore (Service.run ~stream:{ small_stream with Service.config } ~adversary:Attacks.cornering ())
  in
  Alcotest.check_raises "events sink" (Invalid_argument "Service.run: config.events is set")
    (with_config { Runner.default_config with Runner.events = Some (Fba_sim.Events.create ()) });
  Alcotest.check_raises "profiler" (Invalid_argument "Service.run: config.prof is set")
    (with_config { Runner.default_config with Runner.prof = Some (Fba_sim.Prof.create ()) })

(* --- unit: reset entry points --- *)

(* Intern.reset must forget everything (no stale ids served) and
   reassign the same ids as a fresh interner on replay. *)
let test_intern_reset () =
  let it = Intern.create ~max_strings:16 ~max_labels:16 in
  let id_a = Intern.intern it "alpha" in
  let _ = Intern.intern it "beta" in
  let lab = Intern.intern_label it 77L in
  Alcotest.(check int) "two strings registered" 2 (Intern.string_count it);
  Intern.reset it ~max_strings:16 ~max_labels:16;
  Alcotest.(check int) "strings forgotten" 0 (Intern.string_count it);
  Alcotest.(check int) "labels forgotten" 0 (Intern.label_count it);
  Alcotest.(check int) "no stale string id" (-1) (Intern.find it "alpha");
  let id_b = Intern.intern it "beta" in
  Alcotest.(check int) "ids restart at 0" id_a id_b;
  let lab2 = Intern.intern_label it 78L in
  Alcotest.(check int) "label ids restart at 0" lab lab2

(* Cache.reset onto a different sampler must answer exactly like a
   fresh cache over that sampler — stale rows from the first epoch
   must not leak into quorum answers. Ids are reused across the reset
   with new strings and labels, as they are after an interner reset.
   Label id 3 is also queried by a second poller in each epoch, so the
   cross-poller fallback table is checked through the reset as well as
   the dense rows. *)
let test_cache_reset () =
  let module Cache = Fba_samplers.Cache in
  let s1 = Fba_samplers.Sampler.create ~seed:3L ~n:64 ~d:8 in
  let s2 = Fba_samplers.Sampler.create ~seed:9L ~n:64 ~d:8 in
  let echo ~epoch ~r reused fresh =
    List.iter
      (fun x ->
        Alcotest.(check (array int))
          (Printf.sprintf "%s: rid 3 polled by x=%d" epoch x)
          (Cache.quorum_rid fresh ~x ~rid:3 ~r)
          (Cache.quorum_rid reused ~x ~rid:3 ~r))
      [ 3; 20 ]
  in
  let reused = Cache.create s1 in
  for x = 0 to 15 do
    ignore (Cache.quorum_sid reused ~sid:0 ~s:"epoch-one" ~x);
    ignore (Cache.quorum_rid reused ~x ~rid:x ~r:(Int64.of_int x))
  done;
  echo ~epoch:"before reset" ~r:3L reused (Cache.create s1);
  Cache.reset reused ~sampler:s2;
  let fresh = Cache.create s2 in
  for x = 0 to 15 do
    Alcotest.(check (array int))
      (Printf.sprintf "quorum_sid x=%d" x)
      (Cache.quorum_sid fresh ~sid:0 ~s:"epoch-two" ~x)
      (Cache.quorum_sid reused ~sid:0 ~s:"epoch-two" ~x);
    Alcotest.(check (array int))
      (Printf.sprintf "quorum_rid x=%d" x)
      (Cache.quorum_rid fresh ~x ~rid:x ~r:(Int64.of_int (1000 + x)))
      (Cache.quorum_rid reused ~x ~rid:x ~r:(Int64.of_int (1000 + x)))
  done;
  echo ~epoch:"after reset" ~r:1003L reused fresh

(* Aer.config_epoch chains the whole per-run state (interner, quorum
   caches, compile scratch) through a reset; the second
   epoch must produce the exact execution a fresh config produces. *)
let test_config_epoch () =
  let n = 48 in
  let seed_a = 11L and seed_b = 12L in
  let sc_a = Runner.scenario_of_setup Runner.default_setup ~n ~seed:seed_a in
  let cfg_a = Aer.config_of_scenario sc_a in
  let module E = Fba_sim.Sync_engine.Make (Aer) in
  let run cfg (sc : Scenario.t) =
    Service.fingerprint
      (E.run ~quiet_limit:(Params.quiet_limit sc.Scenario.params) ~config:cfg ~n
         ~seed:sc.Scenario.params.Params.seed ~adversary:(Attacks.cornering sc)
         ~mode:`Rushing ~max_rounds:300 ())
        .Fba_sim.Sync_engine.metrics
  in
  ignore (run cfg_a sc_a);
  let sc_b =
    Runner.scenario_of_setup ~intern:sc_a.Scenario.intern Runner.default_setup ~n ~seed:seed_b
  in
  let cfg_b = Aer.config_epoch ~prev:cfg_a sc_b in
  let fp_epoch = run cfg_b sc_b in
  let sc_fresh = Runner.scenario_of_setup Runner.default_setup ~n ~seed:seed_b in
  let fp_fresh = run (Aer.config_of_scenario sc_fresh) sc_fresh in
  Alcotest.(check int64) "epoch-reset config replays the fresh execution" fp_fresh fp_epoch

(* Mailbox reset: nothing staged, pending or deliverable may survive
   the epoch boundary. *)
let test_mailbox_reset () =
  let mb : int Engine_core.Mailbox.t = Engine_core.Mailbox.create ~n:8 () in
  Engine_core.Mailbox.push_correct mb ~src:0 ~dst:1 42;
  Engine_core.Mailbox.push_staged mb ~src:2 ~dst:3 7;
  Engine_core.Mailbox.commit mb ~keep_prev:true;
  Engine_core.Mailbox.push_correct mb ~src:1 ~dst:2 43;
  Engine_core.Mailbox.reset mb;
  Alcotest.(check bool) "nothing pending" false (Engine_core.Mailbox.pending_any mb);
  Alcotest.(check int) "no correct sends" 0 (Engine_core.Mailbox.correct_length mb);
  Alcotest.(check int) "no previous-round window" 0
    (List.length (Engine_core.Mailbox.prev_envelopes mb));
  let delivered = ref 0 in
  Engine_core.Mailbox.drain mb ~f:(fun ~src:_ ~dst:_ _ -> incr delivered);
  Alcotest.(check int) "nothing delivered" 0 !delivered

(* The FBA_JOBS override behind Pool.recommended_jobs, exercised the
   way the service resolves jobs=0. *)
let test_fba_jobs_override () =
  let before = Sys.getenv_opt "FBA_JOBS" in
  Unix.putenv "FBA_JOBS" "3";
  let got = Pool.recommended_jobs () in
  (match before with Some v -> Unix.putenv "FBA_JOBS" v | None -> Unix.putenv "FBA_JOBS" "");
  Alcotest.(check int) "FBA_JOBS=3 overrides the domain count" 3 got

let suites =
  [
    ( "service.stream",
      [
        QCheck_alcotest.to_alcotest prop_stream_matches_oneshot;
        QCheck_alcotest.to_alcotest prop_schedule_invariance;
        Alcotest.test_case "width < 1 refused" `Quick test_width_refused;
        Alcotest.test_case "sink and profiler refused" `Quick test_observers_refused;
      ] );
    ( "service.reset",
      [
        Alcotest.test_case "intern reset" `Quick test_intern_reset;
        Alcotest.test_case "cache reset" `Quick test_cache_reset;
        Alcotest.test_case "config epoch parity" `Quick test_config_epoch;
        Alcotest.test_case "mailbox reset" `Quick test_mailbox_reset;
        Alcotest.test_case "FBA_JOBS override" `Quick test_fba_jobs_override;
      ] );
  ]
