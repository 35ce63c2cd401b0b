(** Opt-in run profiler: per-round, per-handler-tag wall-clock and
    allocation attribution.

    {!Metrics} and the {!Events} pipeline attribute {e bits} per phase;
    this module attributes {e wall-clock nanoseconds} and {e allocated
    words} — the resources the scaling roadmap (n ≥ 65536 sweeps,
    instances/sec service benchmarks) is actually gated on. It follows
    the [?events] contract exactly: engines take an optional [?prof]
    and every instrumentation site is guarded, so a run without a
    profiler performs no extra work and no extra allocation.

    Attribution is a single running cursor over integer snapshots
    ({!Fba_stdx.Monotonic.now_ns} nanoseconds; [Gc.quick_stat]
    minor+major−promoted words). Each attribution point charges the
    delta since the previous snapshot to exactly one (round, slot)
    cell, so consecutive snapshots partition the run's timeline and
    {!check} can demand that the cell matrix sums {e exactly} — in
    integer ns and words — to the run totals. [fba profile] exits
    non-zero when the identity fails, mirroring the per-phase bit
    accounting of [fba trace].

    Slots are the protocol's message tags ({!Protocol.S.msg_tags};
    for AER these are the {!Fba_core.Compiled} dispatch jump-table
    indices, so the per-slot hit/time counters are literally hot-spot
    counters on the compiled dispatch table) plus one trailing
    ["engine"] slot that absorbs everything outside a delivery
    handler: round bookkeeping, sends, adversary strategy calls, GC
    pauses and the profiler's own snapshot cost. *)

type t

val create : unit -> t
(** An idle profiler. Pass it to an engine run ([?prof] /
    [Runner.config.prof]); the engine initializes the slot table from
    the protocol's [msg_tags] at run start. One [t] holds the most
    recent run it was attached to. *)

(** {1 Engine-side instrumentation}

    Called by {!Engine_core} and the engines; not intended for
    protocol or experiment code. *)

val start : t -> tags:string array -> unit
(** Begin a run: install [tags ^ \[|"engine"|\]] as the slot table,
    reset all cells and take the opening snapshot. *)

val round : t -> int -> unit
(** Advance the round cursor (charging the gap to the current round's
    engine slot). Rounds must be non-decreasing; per-round storage
    grows geometrically here and only here, so {!enter}/{!leave} never
    allocate. *)

val enter : t -> unit
(** Immediately before a delivery handler: charge the elapsed engine
    time to the current round's engine slot. *)

val leave : t -> tag:int -> unit
(** Immediately after a delivery handler: charge the handler's time
    and allocation to [(current round, tag)] and count one hit. *)

val stop : t -> unit
(** End the run: charge the tail to the engine slot and fix the run
    totals. Idempotent. *)

val note_peak_mailbox_words : t -> int -> unit
(** Record the run's peak delivery-plane footprint (mailbox/calendar
    words); engines call this once at run end. Keeps the maximum, so
    multi-phase runs sharing one profiler report the larger phase. A
    gauge, outside the {!check} accounting identity. *)

(** {1 Reading the profile} (after {!stop}) *)

val started : t -> bool
(** At least one run was attached (accessors are meaningful). *)

val rounds : t -> int
(** Rounds (or async time steps) profiled, i.e. last round + 1; 0 when
    never started. *)

val slots : t -> int
(** Slot count, protocol tags plus the engine slot. *)

val slot_name : t -> int -> string
(** Slot [i]'s name; index [slots t - 1] is ["engine"]. *)

val wall : t -> round:int -> slot:int -> int
(** Wall-clock nanoseconds charged to the cell (0 out of range). *)

val alloc : t -> round:int -> slot:int -> int
(** Allocated words charged to the cell. *)

val hits : t -> round:int -> slot:int -> int
(** Handler invocations counted on the cell (engine slot: always 0). *)

val slot_wall : t -> int -> int
val slot_alloc : t -> int -> int

val slot_hits : t -> int -> int
(** Per-slot totals over all rounds — the top-K handler-tag table. *)

val round_wall : t -> int -> int
val round_alloc : t -> int -> int
(** Per-round totals over all slots. *)

val total_wall_ns : t -> int
val total_alloc_words : t -> int
(** Run totals, measured independently as last − first snapshot. *)

val peak_mailbox_words : t -> int
(** Peak delivery-plane footprint noted by the engine (0 when no engine
    reported one). *)

val check : t -> bool
(** The accounting identity: Σ cells = totals, exactly, for both wall
    nanoseconds and allocated words. *)
