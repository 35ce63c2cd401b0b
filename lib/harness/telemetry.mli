(** Run-level telemetry: one versioned JSON document per run.

    {!Obs} reduces an engine run for the experiment tables;
    {!Fba_sim.Metrics} holds the raw per-node accounting; the
    {!Fba_sim.Events} pipeline attributes bits per phase; and
    {!Fba_sim.Prof} attributes wall-clock and allocation. This module
    is the export seam that merges all four into a single flat
    document with a stable schema, for dashboards and offline
    regression tooling:

    {v
    {"telemetry_version": 1,
     "counters": {"n": 128, "rounds": 24, ...},
     "gauges":   {"agreed_fraction": 1.0, ...},
     "dists":    {"decision_round": {"count":..,"p50":..,"p95":..,"p99":..,"max":..}, ...},
     "phases":   [{"phase":"push", ...}, ...],
     "prof":     {"rounds":..,"total_wall_ns":..,"total_alloc_words":..,"slots":[...]} | null}
    v}

    Key order is fixed and every byte is ASCII ({!Fba_sim.Events.Jsonl}
    escaping), so documents are golden-testable and safe to embed in
    logs. Degenerate runs (no decisions) export [null] percentiles via
    {!Fba_stdx.Histogram.percentile_opt} rather than crashing. *)

type dist = {
  count : int;
  p50 : int option;  (** [None] on an empty distribution *)
  p95 : int option;
  p99 : int option;
  max : int option;
}

val dist_of_histogram : Fba_stdx.Histogram.t -> dist

type t

val create : unit -> t

val counter : t -> string -> int -> unit
(** Set integer metric [name]. First set fixes the position in the
    document; setting again overwrites the value. *)

val gauge : t -> string -> float -> unit

val dist : t -> string -> Fba_stdx.Histogram.t -> unit
(** Reduce [h] via {!dist_of_histogram} and register it. *)

val set_phases : t -> Fba_sim.Events.Phase_acc.row list -> unit

val set_prof : t -> Fba_sim.Prof.t -> unit
(** Attach a (stopped) run profile; exported under ["prof"]. *)

val counters : t -> (string * int) list
val gauges : t -> (string * float) list
val dists : t -> (string * dist) list

val of_aer_run : ?prof:Fba_sim.Prof.t -> Runner.aer_run -> t
(** The standard reduction: counters and gauges from the run's
    {!Obs.observation} and AER gauges, per-correct-node
    [decision_round] / [sent_bits] / [recv_bits] distributions from
    its {!Fba_sim.Metrics}, and the profile when [prof] was attached
    to the run (ignored if it never started). [phases] stays empty:
    a run traced through {!Runner.aer_phases} adds its accumulator's
    rows with {!set_phases}. *)

val version : int
(** The ["telemetry_version"] this writer emits. *)

val to_json : t -> string
(** The document, single line, no trailing newline. *)
