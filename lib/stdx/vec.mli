(** Growable arrays for allocation-free hot loops.

    Hot paths — AER's per-node backlogs and scratch lanes, the
    interner's tables, the delivery plane's segment free list —
    accumulate here instead of in cons lists, which allocate two to
    three words per element. A [Vec] amortizes that to zero: the
    backing array is reused ([clear] keeps storage). *)

type 'a t

val create : unit -> 'a t
(** Empty vector with no storage; the first [push] allocates. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] out of bounds. *)

val push : 'a t -> 'a -> unit
(** Append, doubling the backing array when full (amortized O(1)). *)

val pop : 'a t -> 'a
(** Remove and return the last element in O(1) (storage retained, so
    the popped element stays reachable until overwritten). Raises
    [Invalid_argument] on an empty vector. *)

val clear : 'a t -> unit
(** Set the length to zero. Storage is retained for reuse, so
    previously pushed elements stay reachable until overwritten. *)

val reset : 'a t -> unit
(** Like [clear], but drop the backing array too — the eviction path:
    the next [push] starts from an empty allocation. *)
