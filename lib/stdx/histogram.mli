(** Small integer histograms.

    Percentiles of decision rounds, per-node bits and service latencies
    — the paper's time bounds are about the {e tail} of the decision
    distribution, which a mean hides. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** Count one occurrence of a value. Negative values are rejected with
    [Invalid_argument]. *)

val total : t -> int

val max_value : t -> int option
(** Largest value with a non-zero count. *)

val percentile_opt : t -> float -> int option
(** [percentile_opt t p] for [p] in [\[0,100\]]: the smallest value v
    such that at least [p]% of the mass is ≤ v, or [None] on an empty
    histogram (degenerate runs report "-" / null instead of crashing).
    Raises [Invalid_argument] when [p] is outside [\[0,100\]]. *)
