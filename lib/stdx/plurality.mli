(** Plurality votes over strings: the decision rule of every
    almost-everywhere→everywhere row and committee hop.

    One vote per voter; the winner is the value with the most votes,
    ties going to the lexicographically smallest value, so the result
    never depends on arrival or table order.

    A tally's electorate is [k] voters, each named by a dense slot in
    [\[0, k)]: the caller maps every sender it accepts to its slot (its
    column in a grid row, its position in a committee), one slot per
    sender. A vote is O(1): one bit of a ⌈k/8⌉-byte {!Bitset} says
    whether the slot has voted, and a string-keyed table holds the
    counts. *)

type t

val create : voters:int -> t
(** An empty tally over the voter slots [\[0, voters)]. *)

val add : t -> voter:int -> string -> unit
(** [add t ~voter v] counts one vote for [v] from slot [voter]; a later
    vote from the same slot is ignored. Raises [Invalid_argument] when
    [voter] is outside [\[0, voters)]. *)

val winner : t -> string option
(** The value with the most votes, ties to the smallest; [None] when
    no vote was counted. *)

val winner_or : t -> default:string -> string
(** {!winner}, or [default] when no vote was counted. *)

val winner_votes : t -> int
(** Votes counted for {!winner} (0 when there is none). *)

val of_outputs : string option array -> counted:(int -> bool) -> string option
(** The plurality of the decided outputs: one vote per index [i] with
    [counted i] and [Some v], then {!winner}. *)
