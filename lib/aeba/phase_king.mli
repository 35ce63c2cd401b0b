(** Phase-king Byzantine agreement (Berman–Garay–Perry) as a reusable
    state machine.

    Deterministic agreement on a string among a fixed member set, for
    [t < members/3] faults, in [t+1] phases of four local rounds each.
    Used in two places:
    - inside {!Aeba}, where each committee of Θ(log n) nodes agrees on
      the contributions forming gstring;
    - as the standalone deterministic baseline of Figure 1(b)
      ({!Fba_baselines.Phase_king_proto}), showing the Θ(t) rounds and
      Θ(n³) total bits the randomized protocols escape.

    The machine is driven by an embedding protocol: call {!on_round}
    with consecutive local round numbers starting at 0 (the embedder
    translates global rounds), feed incoming messages to {!on_receive},
    and read {!output} once {!rounds_needed} local rounds have begun.

    Round structure per phase k (0-based); a message sent in local
    round r arrives in round r+1, so each broadcast gets a round of its
    own to land:
    - local round 4k: every member broadcasts its current value;
    - local round 4k+1: the values arrive and are tallied;
    - local round 4k+2: the phase's king (the (k mod members)-th
      member) broadcasts its plurality value;
    - local round 4k+3: the king's value arrives;
    - start of local round 4k+4: members whose plurality has at least
      members − t votes (more than two thirds) keep it, others adopt
      the king's value (their plurality if the king stayed silent);
      then the next phase begins, or, at round 4·(t+1), the machine
      finishes.

    Agreement: any phase whose king is correct aligns all correct
    members, and a (2/3)-locked value can never change afterwards.
    Validity: if all correct members start with v, every tally sees
    ≥ members − t > (2/3)·members copies of v, so v is locked
    throughout. *)

type t

type msg =
  | Value of string  (** per-phase broadcast of the current value *)
  | King of string  (** the phase king's tie-breaking proposal *)

val create : members:int array -> me:int -> initial:string -> t
(** [members] lists the participating node identities (order is common
    knowledge and fixes the king schedule); [me] must appear in it.
    Tolerates [t = ⌈members/3⌉ − 1] faults over
    [t + 1] phases. *)

val rounds_needed : t -> int
(** Local rounds the machine runs: [4·(t+1)]. After calling
    {!on_round} with this round number minus one and delivering that
    round's messages, {!output} is final. *)

val on_round : t -> round:int -> (int * msg) list
(** Messages (destination, payload) this member sends at the start of
    local [round]. Rounds must be fed consecutively from 0. *)

val on_receive : t -> round:int -> src:int -> msg -> unit
(** Deliver a message during local [round]. Non-members and duplicate
    senders are ignored. *)

val current : t -> string
(** The member's current value (the decision once the machine has
    finished). *)

val finished : t -> round:int -> bool
(** True once [round >= rounds_needed t]. *)

val output : t -> string option
(** [Some (current t)] once finished (tracked internally), else
    [None]. *)
