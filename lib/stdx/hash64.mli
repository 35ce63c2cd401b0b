(** Deterministic 64-bit mixing hash.

    The sampler functions I, H and J of the paper (Section 2.2) are
    realized as keyed hash functions: quorum membership must be a pure
    function of (seed, string, node, index) that every node can evaluate
    locally. This module provides the underlying mixing. It is *not* a
    cryptographic hash; the adversary model in the simulator is given
    explicit query access instead of inverting the hash. *)

type t = int64
(** A 64-bit hash accumulator. *)

val init : int64 -> t
(** [init seed] starts an accumulator from a key. *)

val add_int : t -> int -> t
(** Absorb an integer. *)

val add_int64 : t -> int64 -> t
(** Absorb a 64-bit value. *)

val add_ints : t -> int -> (int -> int) -> t
(** [add_ints h k f] absorbs [f 0], ..., [f (k - 1)] in order: the same
    state as folding {!add_int} over them, without boxing the steps
    between. *)

val add_string : t -> string -> t
(** Absorb a string (content and length). *)

val finish : t -> int64
(** Final avalanche; the result is uniformly mixed. *)

val to_range : int64 -> int -> int
(** [to_range h bound] maps a finished hash uniformly (up to negligible
    bias) onto [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)

val draw : t -> int -> bound:int -> int
(** [draw key i ~bound] is [to_range (finish (add_int key i)) bound]
    — the [i]-th counter-mode draw of a sampler key state — computed
    without allocating. Raises [Invalid_argument] if [bound <= 0]. *)

val hash_string : seed:int64 -> string -> int64
(** One-shot convenience: [finish (add_string (init seed) s)]. *)
