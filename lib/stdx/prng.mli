(** Deterministic, splittable pseudo-random number generator.

    The simulator never uses the OCaml [Random] module: every source of
    randomness is a [Prng.t] seeded explicitly, so that each experiment
    is reproducible from its seed. The generator is splitmix64, which is
    fast, statistically solid for simulation purposes, and splits into
    independent streams — one per simulated node. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] is a fresh generator deterministically derived from
    [seed]. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    independent of the remainder of [t]'s stream. *)

val split_at : t -> int -> t
(** [split_at t i] derives a generator for index [i] without advancing
    [t]; distinct indices give independent streams. Used to hand one
    stream to each simulated node. *)

val next64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises
    [Invalid_argument] if [bound <= 0]. *)

val int64 : t -> int64
(** Alias for {!next64}. *)

val bool : t -> bool
(** Uniform boolean. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bits : t -> int -> Bytes.t
(** [bits t k] is [k] uniformly random bits packed into bytes (unused
    high bits of the last byte are zero). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> n:int -> k:int -> int array
(** [sample_without_replacement t ~n ~k] draws [k] distinct integers
    uniformly from [\[0, n)]. Requires [0 <= k <= n]. The result is in
    selection order (not sorted). *)

val sample_others : t -> n:int -> k:int -> self:int -> int array
(** [sample_others t ~n ~k ~self] draws [k] distinct integers uniformly
    from [\[0, n)] without [self] (a node's peers), with the draws of
    [sample_without_replacement t ~n:(n - 1) ~k]. Requires
    [0 <= k < n]. *)
