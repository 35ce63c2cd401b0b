(** Execution tracing: per-round message counts by kind.

    Attach {!consumer} to an {!Events} sink to collect, without touching
    the protocol code, how many messages of each kind reached a handler
    in each round — the raw material for the phase diagrams one draws of
    AER executions (pushes, then polls/pulls, then the Fw1 burst, then
    Fw2s and answers). Kinds are the engines' event labels, the
    protocol's {!Protocol.S.msg_tags} names, so every protocol gets the
    labels its profiler slots carry. *)

type t

val create : unit -> t

val record : t -> round:int -> kind:string -> unit

val consumer : t -> Events.event -> unit
(** Records every [Deliver] event and ignores the rest. Attach with
    {!Events.attach}. *)

val kinds : t -> string list
(** All kinds seen, sorted. *)

val rounds : t -> int
(** Highest round recorded + 1 (0 if nothing recorded). *)

val count : t -> round:int -> kind:string -> int

val total : t -> kind:string -> int
(** Sum of [count] over all rounds. *)

val render : t -> string
(** A markdown table: one row per round, one right-aligned count column
    per kind, plus a stable trailing [total] row (emitted even for an
    empty trace). *)

val to_csv : t -> string
(** The same table as {!render}, as RFC-4180-ish CSV — the
    kind-per-round counts in machine-readable form. *)
