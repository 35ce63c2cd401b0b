(** The scenario compiler: lower a run's static structure into flat
    per-node dispatch tables.

    Samplers, quorum memberships and the wire-format accounting are
    all fixed the moment the scenario exists; the delivery path used
    to re-derive them through lazy hash tables anyway. {!build} runs
    once per execution (the engines call {!Fba_sim.Protocol.S.compile}
    before [init]) and produces:

    - the push fan-out in CSR form — per-node edge arrays holding
      exactly {!Fba_samplers.Push_plan.targets} for every correct
      node, built in one flat pass per distinct initial string;
    - warm push-quorum rows: every [I(s, x)] row the push phase will
      consult is drawn during the build and donated to the lazy cache
      ({!Fba_samplers.Cache.seed_sid_row}), so delivery-time
      membership tests are pure array walks;
    - wire-size tables — [bits], AER's one wire-size rule, is two
      array loads instead of a per-message [ceil_log2] and
      string-length computation.

    The lazy caches remain the fallback for runtime-dependent keys
    (poll labels, adversarial strings) and the oracle the table tests
    compare against. Compilation never touches the interner and draws
    only quorums the lazy caches would draw anyway, so when the tables
    are built (by an engine, or on first use) cannot change a run. *)

type t

val build : scenario:Scenario.t -> qi:Fba_samplers.Cache.t -> t
(** Lower [scenario] into fresh tables. [qi] must be the run's
    push-quorum cache (its sampler is the build's row source and it
    receives the warm rows). *)

val n : t -> int

val push_start : t -> y:int -> int
val push_stop : t -> y:int -> int

val push_target : t -> int -> int
(** [push_target t i] for [push_start <= i < push_stop] walks node
    [y]'s push targets in ascending order. *)

val push_targets : t -> y:int -> int array
(** Fresh array of node [y]'s targets (tests and diagnostics; the hot
    path iterates the CSR in place). *)

val bits : t -> Msg.Packed.t -> int
(** Wire size of a packed message in bits: the header
    ({!Fba_sim.Metrics.header_bits}: tag, source and destination), 8
    bits per byte of its string, a {!Params.label_bits} label for Poll,
    Pull, Fw1 and Fw2, and one ⌈log₂ n⌉-bit node id for Fw2 (x) or two
    for Fw1 (x, w). The packed field widths never enter it. Strings
    interned after compilation are measured and memoized on first
    sight. Raises [Invalid_argument] on an invalid tag. *)
