(** Agreement as a service: a long-lived instance stream.

    Executes many BA instances over one fixed population size. Each
    instance is opened exactly as a one-shot run is: a fresh scenario
    ({!Runner.scenario_of_setup}), a fresh config
    ({!Fba_core.Aer.config_of_scenario}), then
    [Sync_engine.start ~mailbox]. The one storage reused from instance
    to instance is a lane's mailbox
    ({!Fba_sim.Engine_core.Mailbox.reset}): without it an instance
    allocates about 20% more. Reusing the interner, quorum caches and
    compile scratch as well would save about 1%, so they are fresh per
    instance.

    {b Seeding discipline.} Instance [k] runs the scenario
    [Runner.scenario_of_setup setup ~n ~seed:(instance_seed stream_seed
    k)] under {!Runner.default_config} (rushing, the default round cap,
    a reliable network), so per-instance executions (message counters,
    decision rounds, fingerprints) are byte-identical to
    {!Runner.aer_sync} on that scenario, for every pipeline width and
    every [jobs] value. Mailbox reuse is storage-only. A stream takes
    no sink or profiler: concurrently open instances would interleave
    one; trace or profile one instance with {!Runner.aer_sync} on its
    scenario instead.

    {b Pipelining.} Each worker domain drives [width] lanes through a
    round-robin scheduler: [width] instances are concurrently open,
    each advancing one engine round per pass. Width changes latency
    (an instance's wall-clock includes the rounds of its lane-mates),
    never results.

    {b Sharding.} [jobs] domains each own a contiguous block of the
    instance index space and a private set of lanes
    ({!Fba_stdx.Pool}); [jobs <= 1] runs inline. *)

open Fba_core

val instance_seed : int64 -> int -> int64
(** [instance_seed stream_seed k] is the scenario seed of instance [k]
    — hash-derived, independent of width, jobs, and completion order.
    Exposed so benchmarks and tests can replay any instance as a
    one-shot {!Runner} run. *)

val fingerprint : Fba_sim.Metrics.t -> int64
(** The determinism-golden folding of a run's metrics: every node's
    sent/received message and bit counters plus its decision round,
    then the round count. Equal fingerprints mean the executions are
    indistinguishable through the metrics plane. *)

(** {1 Stream configuration} *)

type stream = {
  setup : Runner.aer_setup;  (** per-instance scenario shape *)
  n : int;  (** population size of every instance *)
  stream_seed : int64;  (** root of the per-instance seed schedule *)
  instances : int;  (** number of instances to execute *)
  width : int;  (** concurrently open instances per domain (>= 1) *)
  jobs : int;  (** worker domains; 0 = auto ({!Sweep.resolve_jobs}) *)
}

val default_stream : stream
(** n 128, 256 instances, width 4, jobs 1, stream seed 42,
    {!Runner.default_setup}. *)

(** {1 Results} *)

type instance_result = {
  index : int;
  seed : int64;  (** = [instance_seed stream_seed index] *)
  fingerprint : int64;  (** {!fingerprint} of the instance's metrics *)
  rounds_used : int;
  decided : int;  (** nodes that decided *)
  agreed : bool;  (** every decision equals the instance's gstring *)
  latency_ns : int;
      (** open-to-finish wall-clock, including the rounds of lane
          mates interleaved with this instance (pipelined latency) *)
}

type summary = {
  results : instance_result array;  (** in instance-index order *)
  n : int;
  instances : int;
  elapsed_ns : int;
  instances_per_sec : float;
  p50_instance_latency_ns : int;
      (** µs-resolution percentile of [latency_ns], reported in ns *)
  p99_instance_latency_ns : int;
}

val run :
  ?stream:stream ->
  adversary:(Scenario.t -> Fba_adversary.Aer_attacks.sync) ->
  unit ->
  summary
(** Execute the stream. Raises [Invalid_argument] naming the field when
    [instances < 0] or [width < 1]. Everything in [results] except
    [latency_ns] is deterministic (identical across width/jobs); the
    throughput and latency fields are wall-clock. Each completed
    instance ticks a ["service"] {!Sweep.heartbeat} (stderr, when
    [FBA_PROGRESS] is set). *)

val pp_trace : out_channel -> summary -> unit
(** Print the deterministic face of a summary — one line per instance
    (seed, fingerprint, rounds, decisions) — used by [fba service] and
    the CI parity smoke ([--jobs 2] vs [--jobs 1] must byte-diff
    clean). *)
