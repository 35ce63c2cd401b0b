(** A load-balanced almost-everywhere→everywhere protocol — an
    exploration of the paper's concluding open question ("find the best
    complexity that is achievable by a load-balanced algorithm ... and
    characterize the trade-off between load-balancing and communication
    complexity").

    Construction:
    + a public pseudo-random committee C of size ⌈2·√n⌉ is sampled from
      the shared seed (the adversary is non-adaptive, so w.h.p. a
      (1/2+ε) majority of C is correct and knowledgeable);
    + committee members exchange their candidates all-to-all within C
      and adopt the majority — after this every correct member holds
      gstring w.h.p.;
    + every node x is deterministically assigned k = Θ(log n) relays in
      C ([members[(x + j·step) mod |C|]]); each relay {e pushes} its
      value to its assigned nodes (the assignment is computable by the
      relay, so there are no requests to flood); x adopts the majority
      of the k values it receives.

    Costs per node: committee members send Θ(√n + k·n/√n) = Θ~(√n)
    strings; everyone else receives k = Θ(log n). Total Θ~(n) bits —
    amortized O~(1) like AER — with a {e maximum} per-node load of
    Θ~(√n), against AER's adversarially forceable near-linear maximum
    and the grid protocol's Θ(√n) for {e every} node. So on the
    (amortized, max-load) plane this point dominates the grid baseline
    and trades AER's worst case for a deterministic √n ceiling —
    evidence that the trade-off frontier the paper asks about is
    non-trivial between the two extremes. *)

type config

val make_config :
  n:int -> seed:int64 -> initial:(int -> string) -> str_bits:int -> unit -> config
(** The committee has ⌈2·√n⌉ members; each node gets 2·⌈log₂ n⌉ + 1
    relays among them, or the whole committee when it is smaller. *)

val committee : config -> int array

include Fba_sim.Protocol.S with type config := config

val total_rounds : int
(** 5: exchange, adopt+relay, adopt. *)
