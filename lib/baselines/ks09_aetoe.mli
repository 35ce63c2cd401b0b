(** Random-push almost-everywhere→everywhere — the [KS09] shape
    ("From almost everywhere to everywhere: Byzantine agreement with
    O~(n^{3/2}) bits"), the state of the art the paper's related-work
    section credits before [KLST11].

    Every node pushes its candidate to Θ(√n·log n) uniformly random
    nodes; every node adopts the plurality of what it received. Total
    O~(n^{3/2}) bits — O~(√n) per node like the grid baseline — but
    {e not} load-balanced on the receive side: nothing stops the
    adversary from pointing all its pushes at chosen victims, which
    {!flood_adversary} does. AER's Input-Quorum membership filter
    (a receiver only counts pushes from I(s, x)) is precisely the
    repair for this. *)

type config

val make_config : n:int -> initial:(int -> string) -> str_bits:int -> config
(** Each node pushes to ⌈√n⌉·⌈log₂ n⌉ / 4 others, at least
    2·⌈log₂ n⌉+1 and at most n − 1. *)

include Fba_sim.Protocol.S with type config := config

val total_rounds : int
(** 3: push, adopt. *)

val flood_adversary :
  ?victims:int -> config -> corrupted:Fba_stdx.Bitset.t -> msg Fba_sim.Sync_engine.adversary
(** Every corrupted node aims its full push budget at [victims]
    (default 4) chosen correct nodes, flooding their mailboxes with
    junk candidates: with t = Θ(n) Byzantine and fanout f, each victim
    receives Θ(n·f/victims) strings — a receive-side hot spot no
    honest parameter choice prevents. *)
