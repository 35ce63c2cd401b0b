(** Cell-wise parallel execution of experiment grids.

    Every experiment is a grid of independent cells (a protocol
    variant at a size, a parameter point of a sweep); each cell
    derives its own seeds through {!Runner.seeds} and builds its own
    scenario, engine, metrics and accumulators. [cells] shards such a
    grid across a {!Fba_stdx.Pool} of domains and returns the rows in
    grid order, so the rendered output is byte-identical for every
    [jobs] value — parallelism only changes wall-clock. *)

val resolve_jobs : int -> int
(** [resolve_jobs j] is [j] if positive, else
    {!Fba_stdx.Pool.recommended_jobs} [()]
    (the CLI convention: [--jobs 0] or an absent flag means "auto"). *)

val heartbeat : label:string -> total:int -> unit -> unit
(** [heartbeat ~label ~total] is the tick to call once per completed
    unit of a [total]-unit job. When the [FBA_PROGRESS] environment
    variable is set (non-empty, not ["0"]) each tick prints
    [\[label\] k/total, X/s, peak mailbox words P] to {e stderr}: the
    completion count (monotone from any domain), the completion rate
    since the heartbeat was made, and {!Fba_sim.Batch.Peak}. Otherwise
    a tick does nothing. Stdout is never touched. *)

val cells : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [cells ~jobs run_cell grid] maps [run_cell] over [grid] on
    [resolve_jobs jobs] domains, preserving grid order. [~jobs:1]
    runs inline (no domain is spawned). Each completed cell ticks a
    ["sweep"] {!heartbeat}. *)
