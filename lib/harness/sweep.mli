(** Cell-wise parallel execution of experiment grids.

    Every experiment is a grid of independent cells (a protocol
    variant at a size, a parameter point of a sweep); each cell
    derives its own seeds through {!Runner.seeds} and builds its own
    scenario, engine, metrics and accumulators. [cells] shards such a
    grid across a {!Fba_stdx.Pool} of domains and returns the rows in
    grid order, so the rendered output is byte-identical for every
    [jobs] value — parallelism only changes wall-clock. *)

val default_jobs : unit -> int
(** {!Fba_stdx.Pool.recommended_jobs} — the [--jobs] default. *)

val resolve_jobs : int -> int
(** [resolve_jobs j] is [j] if positive, else {!default_jobs} [()]
    (the CLI convention: [--jobs 0] or an absent flag means "auto"). *)

val progress_enabled : unit -> bool
(** Whether the [FBA_PROGRESS] environment variable is set (non-empty,
    not ["0"]): the switch for every stderr heartbeat. *)

val cells : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [cells ~jobs run_cell grid] maps [run_cell] over [grid] on
    [resolve_jobs jobs] domains, preserving grid order. [~jobs:1]
    runs inline (no domain is spawned).

    When {!progress_enabled} [()], a heartbeat line
    [\[sweep\] k/total cells] is printed to {e stderr} as each cell
    completes — completion order, so the counter is monotone for any
    [jobs] value while stdout stays byte-identical. *)
