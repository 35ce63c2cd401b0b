(** Pluggable network conditions.

    The paper's model (Section 2.1) assumes a fully-connected,
    authenticated, {e reliable} network; both engines default to
    {!Reliable}, which reproduces that model bit-for-bit and costs
    nothing (no PRNG draws, no allocation — the determinism goldens and
    the perf gate pin this). Every other condition is deliberately
    {e off-model}: it quantifies how far AER's guarantees survive when
    the reliability assumption is weakened, in the spirit of Byzantine
    agreement on incomplete networks (arXiv:2410.20865) and the
    reliability axis of the communication-complexity survey
    (arXiv:2111.02162).

    Conditions are specified as data ({!spec}), instantiated once per
    run with a PRNG stream split from the scenario seed
    ({!instantiate}), and consulted by the engines on every delivery
    ({!verdict}). Because each run owns its state and the engines query
    in a deterministic order, every (spec, seed) pair is reproducible
    and sweeps stay byte-identical for any [--jobs] value. *)

(** What can go wrong on the wire. [round] means the synchronous round
    for {!Sync_engine} and the time step for {!Async_engine}. *)
type spec =
  | Reliable  (** the paper's model: every message is delivered *)
  | Drop of { rate : float }
      (** i.i.d. per-delivery loss with probability [rate] in [\[0,1\]] *)
  | Partition of { from_round : int; rounds : int }
      (** transient bisection: for rounds [from_round] to
          [from_round + rounds - 1] inclusive, messages between the two
          halves ([id < n/2] vs [id >= n/2]) are lost, symmetrically *)
  | Compose of spec list
      (** several conditions at once; at most one of each kind, no
          nesting *)

val reason_loss : string
(** ["net-loss"] — the {!Events.Drop} reason tag for {!Drop}. *)

val reason_partition : string
(** ["net-partition"] — the reason tag for {!Partition}. *)

type t
(** Instantiated per-run state (the loss PRNG stream). *)

val instantiate : spec -> n:int -> seed:int64 -> t
(** Compile [spec] for a system of [n] nodes. {!Drop} draws from a
    stream split from a root PRNG derived from [seed] (label ["net"])
    at a fixed index. Raises [Invalid_argument] on out-of-range
    parameters, duplicate condition kinds, or nested [Compose]. *)

val trivial : t -> bool
(** No condition can lose a delivery: {!verdict} is [Pass] for every
    query. True for {!Reliable}, and for a zero drop rate, a zero-round
    partition or an empty [Compose]. *)

type verdict = Pass | Lose of string  (** [Lose reason] with one of the tags above *)

val verdict : t -> round:int -> src:int -> dst:int -> verdict
(** Fate of one delivery. {!Reliable} returns [Pass] without touching
    any PRNG. A partition cut takes priority over i.i.d. loss. A
    {!Drop} condition performs exactly one PRNG draw per query it
    reaches, whatever the outcome, so two nets with the same seed and
    rates [p <= q] lose coupled subsets — the monotonicity property in
    the test suite. *)
