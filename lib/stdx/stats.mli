(** Summary statistics and growth-rate fitting for experiment output.

    The paper's claims are asymptotic (O(1), polylog, O~(sqrt n), ...).
    {!Growth} classifies a measured (n, y) series into one of those
    classes by comparing least-squares fits, which is how EXPERIMENTS.md
    decides whether a reproduction matches the paper's shape. *)

val mean : float array -> float
(** Arithmetic mean; 0 on the empty array. *)

val percentile : float array -> float -> float
(** [percentile a p] with [p] in [\[0, 100\]], linear interpolation
    between order statistics. Raises [Invalid_argument] on the empty
    array. *)

val median : float array -> float

val binomial_tail : trials:int -> p:float -> at_least:int -> float
(** [binomial_tail ~trials ~p ~at_least] is P(Bin(trials, p) ≥
    at_least), computed exactly in log space. Used to size quorums: a
    quorum of d uniform nodes has a Byzantine majority with probability
    [binomial_tail ~trials:d ~p:q ~at_least:(d/2 + 1)] when a [q]
    fraction of the system is bad. *)

module Growth : sig
  type t =
    | Constant      (** y does not grow with n *)
    | Polylog       (** y = Theta(log^k n) for some k >= 1 *)
    | Power of float  (** y = Theta(n^e); e reported, e.g. 0.5 for sqrt *)

  val classify : (int * float) array -> t
  (** [classify points] compares a power-law fit (log y vs log n) with a
      polylog fit (log y vs log log n) over at least three sizes.
      Heuristic thresholds: power exponent below 0.12 with small dynamic
      range reads as Constant; exponent below 0.48 with a strictly
      better polylog fit reads as Polylog (log² n shows an apparent
      power exponent near 0.37 over laptop-scale n). *)

  val to_string : t -> string

  val power_exponent : (int * float) array -> float
  (** Exponent of the best power-law fit (slope of log y on log n). *)
end
