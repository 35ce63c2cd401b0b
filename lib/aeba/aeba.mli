(** Almost-everywhere agreement on a common random string — the
    [KSSV06]-shaped substrate the paper composes AER with (Section 1,
    "Our contribution"; DESIGN.md substitution 1).

    Structure (synchronous):
    + the root committee's members each contribute
      [gstring_bits / m] private random bits, then run one phase-king
      agreement per contribution so that all correct members hold the
      same concatenation — gstring. Since fewer than 1/3 of the
      committee is Byzantine (w.h.p. by sampling), at least 2/3 + ε of
      gstring's bits are uniformly random: exactly the paper's
      precondition on gstring;
    + gstring then flows down the committee tree, each member adopting
      the plurality of what the parent committee sent, leaf committees
      informing their groups. Every correct node outputs a string; all
      but the subtrees under (rare) corrupted-majority committees
      output gstring — the almost-everywhere guarantee, with
      polylogarithmic per-node communication.

    The protocol is round-driven and meant for the synchronous engine
    (KSSV06 itself is synchronous; asynchronous almost-everywhere
    agreement is open — see the paper's conclusion). *)

type config

val make_config : ?byzantine_fraction:float -> n:int -> seed:int64 -> unit -> config
(** Committees have the smallest size m whose probability of
    containing ≥ ⌈m/3⌉ Byzantine members (breaking phase-king) stays
    below 0.005 given [byzantine_fraction] (default 0.1); groups have
    size m, and gstring 8·⌈log₂ n⌉ bits before padding.
    Raises [Invalid_argument] for [n < 2] or a [byzantine_fraction]
    outside [\[0, 1/3)] (the committee BA needs n > 3t).
    A run is observed through the engine's [?events] sink, whose
    message kinds are {!msg_tags}' names. *)

val config_tree : config -> Committee_tree.t

val config_gstring_bits : config -> int
(** Actual gstring length: contributions are padded so it is a
    multiple of the committee size. *)

val total_rounds : config -> int
(** Rounds until every correct node has produced an output. *)

(** Wire messages — exposed so adversary strategies can forge them
    (the engine still enforces corrupted-source authentication). *)
type msg =
  | Contrib of { slot : int; v : string }
      (** a root member's random slice of gstring *)
  | Pk of { slot : int; inner : Phase_king.msg }
      (** intra-committee phase-king traffic, one instance per slot *)
  | Relay of { level : int; index : int; v : string }
      (** parent committee -> child committee dissemination *)
  | Inform of { v : string }  (** leaf committee -> group member *)

include Fba_sim.Protocol.S with type config := config and type msg := msg
