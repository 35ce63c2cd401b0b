(** Small integer histograms.

    Percentiles of decision rounds, per-node bits and service latencies
    — the paper's time bounds are about the {e tail} of the decision
    distribution, which a mean hides. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** Count one occurrence of a value. Negative values are rejected with
    [Invalid_argument]. *)

val add_many : t -> int -> int -> unit
(** [add_many t v k] counts [k] occurrences. *)

val count : t -> int -> int

val total : t -> int

val max_value : t -> int option
(** Largest value with a non-zero count. *)

val percentile : t -> float -> int
(** [percentile t p] for [p] in [\[0,100\]]: smallest value v such that
    at least [p]% of the mass is ≤ v. Raises [Invalid_argument] on an
    empty histogram — callers that may see degenerate (zero-sample)
    runs should use {!percentile_opt} instead. *)

val percentile_opt : t -> float -> int option
(** Total version of {!percentile}: [None] on an empty histogram
    (degenerate runs report "-" / null instead of crashing). Still
    raises [Invalid_argument] when [p] is outside [\[0,100\]]. *)
