(** The committee tree used by the almost-everywhere agreement
    substrate (our KSSV06-shaped construction, DESIGN.md substitution 1).

    Nodes are partitioned into G groups (node [id] belongs to group
    [id mod G], G a power of two). A complete binary tree of committees
    sits on top: level 0 holds the single root committee, level ℓ holds
    2^ℓ committees, and the 2^L = G leaf committees each serve one
    group. Every committee is a pseudo-random sample of [m] distinct
    nodes drawn from the whole system via the shared seed.

    The root committee generates gstring; each committee then relays it
    to its two children, whose members adopt the plurality of what the
    parent's members sent; leaf committees finally inform their group.
    A committee with a corrupted majority disconnects its subtree — the
    source of the "almost" in almost-everywhere. *)

type t

val build : n:int -> seed:int64 -> group_size:int -> committee_size:int -> t
(** [group_size] is a target: the number of groups is rounded to a
    power of two (at least 1); [committee_size] is clamped to [n].
    Raises [Invalid_argument] on non-positive arguments or [n < 1]. *)

val n : t -> int

val committee_size : t -> int

val levels : t -> int
(** L: leaf committees live at level L, the root at level 0. *)

val group_count : t -> int
(** G = 2^L. *)

val committee : t -> level:int -> index:int -> int array
(** Members of committee (level, index); deterministic in the seed.
    {!build} draws every committee once, and each call returns that
    same array: callers share it and must not mutate it. Raises
    [Invalid_argument] for out-of-range coordinates. *)

val is_member : t -> level:int -> index:int -> int -> bool

val root : t -> int array
(** [committee t ~level:0 ~index:0], shared likewise. *)

val group_of : t -> int -> int
(** The group (= leaf committee index) that informs this node. *)

val group_members : t -> int -> int array
(** All nodes of a group, ascending. *)

val memberships : t -> int -> (int * int) list
(** [(level, index)] pairs of every committee containing the node.
    Precomputed; O(1) lookup. *)

val parent : t -> level:int -> index:int -> (int * int) option
val children : t -> level:int -> index:int -> (int * int) list
