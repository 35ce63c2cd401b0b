(** Plurality votes over strings: the decision rule of every
    almost-everywhere→everywhere row and committee hop.

    One vote per sender; the winner is the value with the most votes,
    ties going to the lexicographically smallest value, so the result
    never depends on arrival or table order. *)

type t

val create : unit -> t

val add : t -> src:int -> string -> unit
(** [add t ~src v] counts one vote for [v] from [src]; a later vote
    from the same [src] is ignored. *)

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
