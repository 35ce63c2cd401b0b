(* Agreement-as-a-service: the instance stream must be a pure storage
   optimisation.

   - qcheck property: every instance of a stream is
     trace-fingerprint-identical to a fresh one-shot Runner run of the
     same derived seed — across pipeline widths and worker-domain
     counts.
   - the one storage a stream reuses, its lanes' mailboxes: a reset
     mailbox holds nothing of the previous instance, and the reuse
     shows in a pinned allocation budget. *)

module Runner = Fba_harness.Runner
module Service = Fba_harness.Service
module Attacks = Fba_adversary.Aer_attacks
module Engine_core = Fba_sim.Engine_core
open Fba_stdx

(* --- qcheck: stream vs one-shot fingerprint identity --- *)

let one_shot_fp ~setup ~n ~seed =
  let sc = Runner.scenario_of_setup setup ~n ~seed in
  Service.fingerprint (Runner.aer_sync ~adversary:Attacks.cornering sc).Runner.metrics

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
      let stream =
        { Service.setup; n; stream_seed = Int64.of_int seed; instances; width; jobs }
      in
      let s = Service.run ~stream ~adversary:Attacks.cornering () in
      Array.length s.Service.results = instances
      && Array.for_all
           (fun (r : Service.instance_result) ->
             Int64.equal r.Service.fingerprint
               (one_shot_fp ~setup ~n ~seed:r.Service.seed))
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

(* --- unit: the lane mailbox is reused --- *)

(* Eight cornering n=128 instances on two lanes of one domain allocate
   this many words per instance on the default (release) build;
   [--profile dev] reads 0.7% more. Opening every instance on a fresh
   mailbox instead of its lane's reads 26% more, so the 1% budget
   catches a dropped reuse. *)
let service_n128_words = 802_092.

let test_alloc_budget () =
  let instances = 8 in
  let stream =
    { Service.default_stream with
      Service.n = 128;
      stream_seed = 1L;
      instances;
      width = 2;
      jobs = 1 }
  in
  let before = Test_streamed.allocated_words () in
  ignore (Service.run ~stream ~adversary:Attacks.cornering ());
  let words = (Test_streamed.allocated_words () -. before) /. float_of_int instances in
  let budget = 1.01 *. service_n128_words in
  if words > budget then
    Alcotest.failf "service n=128 allocated %.0f words per instance, %+.2f%% over %.0f (budget %.0f)"
      words
      ((words /. service_n128_words -. 1.) *. 100.)
      service_n128_words budget

(* Mailbox reset: nothing staged, pending or deliverable may survive
   the epoch boundary. *)
let test_mailbox_reset () =
  let mb : int Engine_core.Mailbox.t = Engine_core.Mailbox.create ~n:8 () in
  let ignore_msg ~src:_ ~dst:_ _ = () in
  Engine_core.Mailbox.push_correct mb ~src:0 ~dst:1 42;
  Engine_core.Mailbox.commit mb;
  Engine_core.Mailbox.drain mb ~keep_window:true ~f:ignore_msg;
  Alcotest.(check int) "a kept drain leaves the window" 1
    (List.length (Engine_core.Mailbox.prev_envelopes mb));
  Engine_core.Mailbox.push_correct mb ~src:1 ~dst:2 43;
  Engine_core.Mailbox.push_staged mb ~src:2 ~dst:3 7;
  Engine_core.Mailbox.commit mb;
  Engine_core.Mailbox.push_correct mb ~src:3 ~dst:4 44;
  Engine_core.Mailbox.reset mb;
  Alcotest.(check bool) "nothing pending" false (Engine_core.Mailbox.pending_any mb);
  Alcotest.(check int) "no correct sends" 0 (Engine_core.Mailbox.correct_length mb);
  Alcotest.(check int) "no previous-round window" 0
    (List.length (Engine_core.Mailbox.prev_envelopes mb));
  let delivered = ref 0 in
  Engine_core.Mailbox.drain mb ~keep_window:false ~f:(fun ~src:_ ~dst:_ _ -> incr delivered);
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
        Alcotest.test_case "n=128 allocation budget" `Quick test_alloc_budget;
      ] );
    ( "service.reset",
      [
        Alcotest.test_case "mailbox reset" `Quick test_mailbox_reset;
        Alcotest.test_case "FBA_JOBS override" `Quick test_fba_jobs_override;
      ] );
  ]
