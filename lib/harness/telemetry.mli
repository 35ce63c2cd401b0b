(** Run-level telemetry: one versioned JSON document per AER run.

    {!Obs} reduces an engine run for the experiment tables;
    {!Fba_sim.Metrics} holds the raw per-node accounting; and
    {!Fba_sim.Prof} attributes wall-clock and allocation. This module
    writes all three as a single flat document with a fixed schema, for
    dashboards and offline regression tooling:

    {v
    {"telemetry_version": 2,
     "counters": {"n": 128, "rounds": 24, ...},
     "gauges":   {"decided_fraction": 1.0, ...},
     "dists":    {"decision_round": {"count":..,"p50":..,"p95":..,"p99":..,"max":..}, ...},
     "prof":     {"rounds":..,"total_wall_ns":..,"total_alloc_words":..,"slots":[...]} | null}
    v}

    Key order is fixed and every byte is ASCII ({!Fba_sim.Events.Jsonl}
    escaping), so documents are golden-testable and safe to embed in
    logs. Degenerate runs (no decisions) export [null] percentiles via
    {!Fba_stdx.Histogram.percentile_opt} rather than crashing. The
    per-phase bit split of a traced run is {!Fba_sim.Events.Tally}'s,
    not this document's. *)

val version : int
(** The ["telemetry_version"] this writer emits. Version 2 dropped
    version 1's always-empty ["phases"] array. *)

val to_json : ?prof:Fba_sim.Prof.t -> Runner.aer_run -> string
(** The document, single line, no trailing newline: counters and
    gauges from the run's {!Obs.observation} and AER gauges,
    per-correct-node [decision_round] / [sent_bits] / [recv_bits]
    distributions from its {!Fba_sim.Metrics}, and the profile when
    [prof] was attached to the run ([null] if absent or never
    started). *)
