(* One instance of each workload kind, driven through the public calls
   the library's own entry points make: [Runner.aer_sync] /
   [Runner.aer_async] / [Runner.run_grid] are scenario → config →
   engine run, and [Sync_engine.run] is [start] + [step]* + [finish].
   The runners below make those calls one by one so each can be timed,
   and are functors over the protocol module so the traced rep runs the
   same code over {!Timed} / {!Timed_grid}. {!Suite} checks the
   equivalence by fingerprint. *)

open Fba_stdx
open Fba_core
module Runner = Fba_harness.Runner
module Service = Fba_harness.Service
module Attacks = Fba_adversary.Aer_attacks
module Sync_engine = Fba_sim.Sync_engine
module Async_engine = Fba_sim.Async_engine
module Metrics = Fba_sim.Metrics
module Grid = Fba_baselines.Grid_aetoe

let config = Runner.default_config
let setup = Runner.default_setup

type outcome = {
  fingerprint : int64;  (** {!Service.fingerprint} of the run's metrics *)
  failure : string option;  (** [None]: agreement, validity and termination hold *)
  latency_ns : int;  (** open to result: set-up, run and finish *)
  setup_ns : int;  (** scenario + config + compile (+ engine start where separable) *)
  bits_per_node : float;  (** {!Metrics.amortized_bits} *)
  rounds : float;  (** median decision round of the correct nodes; normalized on the async engine *)
  observation : Fba_harness.Obs.observation option;
      (** grid only: what [Runner.run_grid] returns, to check against it *)
}

(* Agreement (correct decisions equal), validity (they equal gstring),
   the round or time cap, termination (every correct node decided).
   "termination" alone is the miss AER's quorum sizing permits; a run
   that also hit its cap reads "cap". *)
let verdict (sc : Scenario.t) ~outputs ~capped =
  let first = ref None and split = ref false and wrong = ref false and undecided = ref false in
  Array.iteri
    (fun i o ->
      if not (Bitset.mem sc.Scenario.corrupted i) then
        match o with
        | None -> undecided := true
        | Some v ->
          (match !first with
          | None -> first := Some v
          | Some f -> if not (String.equal f v) then split := true);
          if not (String.equal v sc.Scenario.gstring) then wrong := true)
    outputs;
  if !split then Some "agreement"
  else if !wrong then Some "validity"
  else if capped then Some "cap"
  else if !undecided then Some "termination"
  else None

(* Median decision round of the correct nodes that decided, in units of
   [per_round] engine steps (the async adversary's max delay). *)
let median_decision (sc : Scenario.t) metrics ~per_round =
  let rounds = ref [] in
  for i = Metrics.n metrics - 1 downto 0 do
    if not (Bitset.mem sc.Scenario.corrupted i) then
      match Metrics.decision_round metrics i with
      | Some r -> rounds := (float_of_int r /. float_of_int per_round) :: !rounds
      | None -> ()
  done;
  if !rounds = [] then 0.0 else Stats.median (Array.of_list !rounds)

let outcome ?(per_round = 1) ?observation (sc : Scenario.t) ~metrics ~outputs ~capped ~t0 ~t1 ~t2
    =
  {
    fingerprint = Service.fingerprint metrics;
    failure = verdict sc ~outputs ~capped;
    latency_ns = t2 - t0;
    setup_ns = t1 - t0;
    bits_per_node = Metrics.amortized_bits metrics;
    rounds = median_decision sc metrics ~per_round;
    observation;
  }

(* Runner.aer_sync's quiescence window (re-polling nodes wake after
   repoll_timeout idle rounds). *)
let quiet_limit (sc : Scenario.t) =
  let p = sc.Scenario.params in
  if p.Params.max_poll_attempts > 1 then p.Params.repoll_timeout + 2 else 3

let scenario ~n ~seed =
  Spans.span "runner.scenario" (fun () -> Runner.scenario_of_setup setup ~n ~seed)

let aer_config sc =
  Spans.span "aer.config" (fun () -> Aer.config_of_scenario ~compile:config.Runner.compile sc)

let step_all step running =
  while Spans.span_each "sync_engine.step" (fun () -> step running) do
    ()
  done

module type AER = Fba_sim.Protocol.S with type config = Aer.config and type msg = Aer.msg

module type GRID = Fba_sim.Protocol.S with type config = Grid.config and type msg = Grid.msg

(* Runner.aer_sync, call by call. The explicit compile is idempotent:
   the engine's own call inside [start] finds the tables built. *)
module Sync_aer (P : AER) = struct
  module E = Sync_engine.Make (P)

  (* Everything before the first step, and the clock at its start and end. *)
  let start ~adversary ~n ~seed =
    let t0 = Clock.now_ns () in
    let sc = scenario ~n ~seed in
    let cfg = aer_config sc in
    P.compile cfg;
    let running =
      Spans.span "sync_engine.start" (fun () ->
          E.start ~quiet_limit:(quiet_limit sc) ~stream:config.Runner.stream
            ~net:config.Runner.net ~config:cfg ~n ~seed:sc.Scenario.params.Params.seed
            ~adversary:(adversary sc) ~mode:config.Runner.mode
            ~max_rounds:config.Runner.max_rounds ())
    in
    (sc, running, t0, Clock.now_ns ())

  let run ~adversary ~n ~seed =
    let sc, running, t0, t1 = start ~adversary ~n ~seed in
    step_all E.step running;
    let res = Spans.span "sync_engine.finish" (fun () -> E.finish running) in
    let t2 = Clock.now_ns () in
    outcome sc ~metrics:res.Sync_engine.metrics ~outputs:res.Sync_engine.outputs
      ~capped:(res.Sync_engine.rounds_used >= config.Runner.max_rounds) ~t0 ~t1 ~t2
end

(* Runner.aer_async, call by call. The async engine has no stepper, so
   its start is part of the one [async_engine.run] span. *)
module Async_aer (P : AER) = struct
  module E = Async_engine.Make (P)

  let run ~adversary ~n ~seed =
    let t0 = Clock.now_ns () in
    let sc = scenario ~n ~seed in
    let cfg = aer_config sc in
    P.compile cfg;
    let t1 = Clock.now_ns () in
    let adversary = adversary sc in
    let res =
      Spans.span "async_engine.run" (fun () ->
          E.run ~stream:config.Runner.stream ~net:config.Runner.net ~config:cfg ~n
            ~seed:sc.Scenario.params.Params.seed ~adversary ~max_time:config.Runner.max_time ())
    in
    let t2 = Clock.now_ns () in
    outcome ~per_round:adversary.Async_engine.max_delay sc ~metrics:res.Async_engine.metrics
      ~outputs:res.Async_engine.outputs
      ~capped:(res.Async_engine.time_used >= config.Runner.max_time) ~t0 ~t1 ~t2
end

(* Runner.run_grid, call by call: silent adversary, rushing, the
   grid's fixed round budget. *)
module Sync_grid (P : GRID) = struct
  module E = Sync_engine.Make (P)

  let run ~adversary ~n ~seed =
    let t0 = Clock.now_ns () in
    let sc = scenario ~n ~seed in
    let cfg =
      Spans.span "grid.config" (fun () ->
          Grid.make_config ~n
            ~initial:(fun i -> sc.Scenario.initial.(i))
            ~str_bits:(8 * String.length sc.Scenario.gstring))
    in
    let t1 = Clock.now_ns () in
    let max_rounds = Grid.total_rounds + 2 in
    let running =
      Spans.span "sync_engine.start" (fun () ->
          E.start ~stream:config.Runner.stream ~net:config.Runner.net ~config:cfg ~n
            ~seed:sc.Scenario.params.Params.seed
            ~adversary:(adversary (Sync_engine.null_adversary ~corrupted:sc.Scenario.corrupted))
            ~mode:`Rushing ~max_rounds ())
    in
    step_all E.step running;
    let res = Spans.span "sync_engine.finish" (fun () -> E.finish running) in
    let t2 = Clock.now_ns () in
    let metrics = res.Sync_engine.metrics and outputs = res.Sync_engine.outputs in
    let observation =
      Fba_harness.Obs.of_metrics ~metrics ~outputs ~reference:(Some sc.Scenario.gstring) ()
    in
    outcome ~observation sc ~metrics ~outputs ~capped:(res.Sync_engine.rounds_used >= max_rounds)
      ~t0 ~t1 ~t2
end

module Plain_sync = Sync_aer (Aer)
module Traced_sync = Sync_aer (Timed)
module Plain_async = Async_aer (Aer)
module Traced_async = Async_aer (Timed)
module Plain_grid = Sync_grid (Grid)
module Traced_grid = Sync_grid (Timed_grid)

type kind = Aer_sync | Aer_async | Grid_sync | Service_stream

(* One instance of a direct (non-service) kind. Traced runs open an
   "instance" root span; an exception is a failed instance. *)
let run kind ~traced ~n ~inst ~seed =
  let go () =
    match (kind, traced) with
    | Aer_sync, false -> Plain_sync.run ~adversary:(fun sc -> Attacks.cornering sc) ~n ~seed
    | Aer_sync, true ->
      Traced_sync.run ~adversary:(fun sc -> Timed.sync_adversary (Attacks.cornering sc)) ~n ~seed
    | Aer_async, false ->
      Plain_async.run ~adversary:(fun sc -> Attacks.async_cornering sc) ~n ~seed
    | Aer_async, true ->
      Traced_async.run
        ~adversary:(fun sc -> Timed.async_adversary (Attacks.async_cornering sc))
        ~n ~seed
    | Grid_sync, false -> Plain_grid.run ~adversary:Fun.id ~n ~seed
    | Grid_sync, true -> Traced_grid.run ~adversary:Timed.sync_adversary ~n ~seed
    | Service_stream, _ -> invalid_arg "Instance.run: service instances run in Service.run"
  in
  match Spans.root ~inst "instance" go with
  | o -> o
  | exception e ->
    Spans.abort ();
    {
      fingerprint = 0L;
      failure = Some ("exception " ^ Printexc.to_string e);
      latency_ns = 0;
      setup_ns = 0;
      bits_per_node = 0.0;
      rounds = 0.0;
      observation = None;
    }

(* The set-up of a one-shot sync AER instance, in ns, without running it:
   [Service.run] sets its instances up out of sight, so the service's
   [setup_s] is that of the one-shot runs of the same seeds. *)
let setup_ns ~n ~seed =
  let _, _, t0, t1 = Plain_sync.start ~adversary:(fun sc -> Attacks.cornering sc) ~n ~seed in
  t1 - t0

(* [Service.run] with width 4 on one domain; traced runs wrap the
   adversary (the only layer visible from outside) under a "service.run"
   root. *)
let service ~traced ~n ~seed ~instances =
  let adversary sc =
    if traced then Timed.sync_adversary (Attacks.cornering sc) else Attacks.cornering sc
  in
  let stream =
    { Service.default_stream with Service.n; stream_seed = seed; instances; width = 4; jobs = 1 }
  in
  Spans.root ~inst:0 "service.run" (fun () -> Service.run ~stream ~adversary ())
