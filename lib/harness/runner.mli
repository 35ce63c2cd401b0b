(** Execution helpers shared by all experiments: build a workload,
    run a protocol under an adversary, reduce to {!Obs.observation}
    plus protocol-specific gauges. *)

open Fba_core

type aer_setup = {
  byzantine_fraction : float;
  knowledgeable_fraction : float;
  junk : Scenario.junk;
  pull_filter : int option;  (** [None] = the paper's log² n default *)
  d_override : (int * int * int) option;  (** (d_i, d_h, d_j) if forced *)
  gstring_bits : int option;
  per_run_miss : float;
}

val default_setup : aer_setup
(** byz 0.10, knowledgeable 0.85, unique junk, defaults elsewhere. *)

val scenario_of_setup : aer_setup -> n:int -> seed:int64 -> Scenario.t
(** Auto-sizes quorums via {!Params.make_for} unless [d_override].
    Every run builds its scenario here, each {!Service} instance
    included. *)

(** {1 Run configuration}

    One record carries every knob the run functions used to take as
    scattered optional arguments. Build variations with record update
    on {!default_config}:
    [{ Runner.default_config with mode = `Non_rushing }]. *)

type config = {
  mode : Fba_sim.Sync_engine.mode;  (** sync engines; default [`Rushing] *)
  max_rounds : int;  (** sync round cap; default 300 *)
  max_time : int;  (** async time cap; default 4000 *)
  events : Fba_sim.Events.sink option;
      (** trace sink for the AER runs: every engine event, each message
          labelled with its {!Fba_core.Aer.msg_tags} name; [None] keeps
          the zero-allocation untraced path. Attach
          {!Fba_sim.Events.Tally} to it (or use {!aer_phases}) for a
          per-phase breakdown. *)
  prof : Fba_sim.Prof.t option;
      (** run profiler threaded into every engine run; [None] (default)
          keeps the zero-work unprofiled path. The engine re-arms the
          profiler at run start ({!Fba_sim.Prof.start}), so one [Prof.t]
          can be reused across runs — it always holds the last run. *)
  flood : bool;
      (** attackable baselines ({!naive}, {!ks09}): [false] (default)
          = silent adversary on both, [true] = the protocol's worst
          flooding strategy. Replaces the old per-function [?flood]
          optionals, whose defaults were easy to drift apart. *)
  net : Fba_sim.Net.spec;
      (** network-condition layer threaded into every engine run.
          [Reliable] (default) is the paper's model and is
          byte-identical to the pre-layer engines; anything else is an
          off-model robustness condition (see {!Fba_sim.Net} and
          {!Exp_robustness}). *)
  compile : unit;
  stream : unit;
      (** [compile] and [stream] carry no choice. They once switched AER
          between compiled and tag-chain dispatch and the engines
          between streamed and double-buffered delivery; both pairs ran
          byte-identically, and only the compiled, streamed side
          remains. The fields stay, as [unit], because the benchmark
          ([benchmark/instance.ml]) passes [config.compile] to
          {!Fba_core.Aer.config_of_scenario} and [config.stream] to the
          engines; a caller still setting them to a [bool] fails to
          compile. *)
}

val default_config : config

type aer_run = {
  scenario : Scenario.t;
  obs : Obs.observation;
  metrics : Fba_sim.Metrics.t;
      (** the raw engine metrics behind [obs] — {!Telemetry.to_json}
          reads per-node distributions from here *)
  push_max_messages : int;  (** Lemma 3 gauge: worst correct push fan-out *)
  candidate_sum : int;  (** Lemma 4 gauge: Σ|L_x| over correct nodes *)
  candidate_max : int;  (** load-balance gauge: the largest candidate list *)
  gstring_missing : int;  (** Lemma 5 gauge: correct nodes whose list lacks gstring *)
}

val aer_sync :
  ?config:config ->
  adversary:(Scenario.t -> Fba_adversary.Aer_attacks.sync) ->
  Scenario.t ->
  aer_run
(** AER on the synchronous engine, with the quiescence window
    {!Fba_core.Params.quiet_limit}. Uses [config.mode], [max_rounds],
    [events], [prof], [net]. *)

val aer_async :
  ?config:config ->
  adversary:(Scenario.t -> Fba_adversary.Aer_attacks.async) ->
  Scenario.t ->
  aer_run * float
(** AER on the asynchronous engine; also returns the normalized round
    count (time / max_delay). Uses [config.max_time], [events], [prof],
    [net]. *)

val aer_phases :
  ?config:config ->
  adversary:(Scenario.t -> Fba_adversary.Aer_attacks.sync) ->
  Scenario.t ->
  aer_run * Fba_sim.Events.Tally.t
(** {!aer_sync} with a fresh tally classifying message kinds via
    {!Fba_core.Aer.phase_of_kind}, attached to [config.events] (or to
    a fresh sink when that is [None]); returns the tally alongside the
    run. Its rows ({!Fba_sim.Events.Tally.rows}) are the run's
    per-phase breakdown. *)

val run_grid : ?config:config -> Scenario.t -> Obs.observation
(** Grid baseline on the same workload (silent adversary — its
    vulnerability axis is load, not safety). Uses [config.net]. *)

val naive : ?config:config -> Scenario.t -> Obs.observation * int
(** Naive baseline; also returns the worst per-node replies-sent
    count. [config.flood] selects the query-flooding adversary. *)

val ks09 : ?config:config -> Scenario.t -> Obs.observation
(** The [KS09]-shaped random-push baseline; [config.flood] aims every
    Byzantine push budget at a few victims (receive-side hot spot). *)

val run_relay : ?config:config -> Scenario.t -> Obs.observation
(** The committee-relay extension ({!Fba_extensions.Committee_relay})
    on the same workload — the load-balance/communication trade-off
    point of the paper's concluding open question. Uses [config.net]. *)

val seeds : int -> int64 list
(** [seeds k] is [k] fixed distinct seeds, stable across runs. Grid
    cells derive their per-run randomness from these, which is what
    makes cell-wise parallel sweeps ({!Sweep}) deterministic. *)
