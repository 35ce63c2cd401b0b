(** Per-run interning of candidate strings and poll labels.

    The packed message plane ({!Msg.Packed}) carries small integer ids
    instead of heap payloads: every candidate string and every 64-bit
    poll label a run touches is registered here exactly once, in a
    deterministic (single-threaded) order, and resolved back when a
    human-readable rendering or a sampler draw needs the raw value.

    An interner belongs to one {!Scenario.t} and lives as long as its
    run: sweep cells and service instances each build their own
    scenario, so no table is ever shared across runs or domains.
    Registration is idempotent: replaying the same run against a warm
    interner reassigns identical ids.

    Table capacities mirror the scenario's packed {!Msg.Layout}: an id
    must fit its field, so the caps are the layout's [max_strings] and
    [max_labels]. *)

type t

val create : max_strings:int -> max_labels:int -> t

val intern : t -> string -> int
(** Id of the string, registering it first if unseen. Raises [Failure]
    beyond [max_strings] distinct strings. *)

val find : t -> string -> int
(** Id of the string, or [-1] if it was never registered. *)

val string : t -> int -> string
(** Inverse of {!intern}; the returned string is shared, not copied. *)

val string_count : t -> int

val intern_label : t -> int64 -> int
(** Id of the label, registering it first if unseen. Raises [Failure]
    beyond [max_labels] distinct labels. *)

val label : t -> int -> int64
(** Inverse of {!intern_label}; the returned box is shared. *)

val label_count : t -> int
