(** Communication and time accounting for a protocol execution.

    The paper's communication complexity (Section 2.1) is the total
    number of exchanged bits divided by n ("amortized"); because AER is
    deliberately *not* load-balanced, we also track per-node maxima, and
    we separate traffic sent by correct nodes from Byzantine-triggered
    receptions so that flooding attacks are visible in the numbers
    rather than hidden in an average. *)

type t

val create : n:int -> corrupted:Fba_stdx.Bitset.t -> t

val n : t -> int

val corrupted : t -> Fba_stdx.Bitset.t

val header_bits : n:int -> int
(** Wire header of one message among [n] nodes: an 8-bit tag plus
    source and destination ids of ⌈log₂ max(2, n)⌉ bits each. Every
    protocol's [msg_bits] is this plus its payload. *)

val record_send : t -> src:int -> dst:int -> bits:int -> unit
(** Account one message of [bits] payload bits (headers included by the
    protocol's [msg_bits]). *)

val record_decision : t -> id:int -> round:int -> unit
(** First decision round of node [id]; later calls are ignored. *)

val set_rounds : t -> int -> unit
(** Total rounds (or normalized async time) the execution used. *)

val rounds : t -> int

val set_peak_mailbox_words : t -> int -> unit
(** Peak delivery-plane footprint (mailbox/calendar words) of the
    execution; keeps the maximum across calls. *)

val peak_mailbox_words : t -> int

val sent_messages_of : t -> int -> int
val sent_bits_of : t -> int -> int
val recv_messages_of : t -> int -> int
val recv_bits_of : t -> int -> int

val total_bits_correct : t -> int
(** Bits sent by correct nodes. *)

val total_messages_correct : t -> int
(** Messages sent by correct nodes — Lemmas 9/10 bound this by O~(n). *)

val total_bits_all : t -> int
(** Bits sent by everyone, Byzantine flooding included. *)

val amortized_bits : t -> float
(** [total_bits_correct / n] — the paper's communication metric. *)

val max_sent_bits_correct : t -> int
(** Heaviest correct sender, for the load-balance column of Fig. 1(a). *)

val max_recv_bits_correct : t -> int

val load_imbalance : t -> float
(** max correct node traffic (sent+received) divided by the mean;
    1.0 is perfectly balanced. Degenerate executions — an empty correct
    set, or no correct node having sent or received anything — return
    0. instead of dividing by zero. *)

val decision_round : t -> int -> int option

val decided_count : t -> int
(** Number of nodes with a recorded decision. *)

val max_decision_round_correct : t -> int option
(** Latest decision among correct nodes, or [None] if some correct node
    never decided. *)

val merge_phases : t -> t -> t
(** [merge_phases first second] combines the accounting of two
    consecutive protocol phases over the same node set (e.g.
    almost-everywhere agreement followed by AER): traffic counters are
    summed, rounds are added, and decisions are taken from [second]
    offset by [first]'s round count. Raises [Invalid_argument] if
    sizes or corruption sets differ. *)
