(** Open-addressing hash table keyed by [int64].

    It holds the interner's 64-bit poll labels. It probes with the
    int64 directly: no polymorphic hash or compare, and no per-lookup
    allocation on hits ([get] raises [Not_found] instead of returning
    an option). Linear probing over a power-of-two slot array at load
    factor <= 1/2. Keys cannot be removed. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
(** Number of distinct keys present. *)

val mem : 'a t -> int64 -> bool

val get : 'a t -> int64 -> 'a
(** Raises [Not_found]; allocation-free on the hit path. *)

val find_opt : 'a t -> int64 -> 'a option

val set : 'a t -> int64 -> 'a -> unit
(** Insert or replace. *)

val iter : (int64 -> 'a -> unit) -> 'a t -> unit
