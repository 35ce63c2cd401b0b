(** Naive sample-and-vote almost-everywhere→everywhere.

    Each node queries Θ(log n) uniformly random nodes and adopts the
    majority of the replies. With (1/2+ε)·n knowledgeable correct nodes
    this decides correctly w.h.p. and costs only O(log²n) bits per node
    {e without} an adversary — but repliers answer {e every} query
    unconditionally, so Byzantine nodes can direct all their queries at
    chosen victims and inflate their send load to Θ(t) strings. This is
    the protocol shape the paper's pull filters exist to fix (Section
    2.3); the [exp_filter_ablation] bench quantifies the difference. *)

type config

val make_config : n:int -> initial:(int -> string) -> str_bits:int -> config
(** Each node queries [4·⌈log₂ n⌉ + 1] others (odd, so majorities are
    unambiguous), or all n − 1 of them when that is fewer. *)

include Fba_sim.Protocol.S with type config := config

val total_rounds : int
(** Rounds until decision (3): query, reply, adopt. *)

val queries_answered : state -> int
(** How many distinct queriers this node replied to — the unbounded
    quantity the attack targets. *)

val flood_adversary :
  config -> corrupted:Fba_stdx.Bitset.t -> msg Fba_sim.Sync_engine.adversary
(** Every corrupted node queries every node in round 0. Each correct
    node then sends Θ(t) replies of |s| bits — Θ(n·log n) bits per node
    at t = Θ(n), against O(log² n) without the attack. AER's quorum
    filters (Section 2.3) are designed to remove exactly this
    amplification. *)
