(** Open-addressing [int -> int] hash table.

    Keys are non-negative packed identifiers (interned ids, packed
    (x, s) pairs, label ids); [-1] marks an empty slot, so the table
    is two unboxed int arrays with no occupancy side plane and no
    allocation on any operation except growth. The protocol's
    per-node sets, counters and majority-tally indexes (key -> record
    offset) use it in place of [Hashtbl], whose
    per-probe hashing and per-binding bucket cons dominate the message
    delivery path at sweep sizes. *)

type t

val create : ?capacity:int -> unit -> t
(** Empty table; [capacity] (default 16) rounds up to a power of two. *)

val length : t -> int
(** Number of distinct keys present. *)

val mem : t -> int -> bool

val get_or : t -> int -> default:int -> int
(** Value bound to the key, or [default] if absent. Allocation-free. *)

val set : t -> int -> int -> unit
(** Bind (or rebind) the key. Raises [Invalid_argument] on a negative
    key. *)

val add : t -> int -> bool
(** Set-flavoured insert: [true] iff the key was absent (it is bound
    to [0]). One probe; the membership test and the insertion share it. *)

val incr : t -> int -> int
(** Bump the key's counter in place (absent counts as 0) and return
    the new value. *)

val reserve : t -> int -> unit
(** [reserve t k] sizes the storage once so that [t] holds [k] keys
    without growing: a table expected to fill can skip every doubling
    on the way. Bindings are kept; a request the table already meets
    (a smaller one included) changes nothing, so it never shrinks. *)

val reset : t -> unit
(** Remove every binding {e and} shrink the storage back to the
    initial capacity — the state-eviction path: a table whose rows can
    no longer be referenced gives its words back to the GC. *)

val iter : (int -> int -> unit) -> t -> unit
(** Iterate bindings in unspecified (slot) order. *)
