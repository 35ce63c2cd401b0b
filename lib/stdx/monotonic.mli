(** The program's one clock. *)

val now_ns : unit -> int
(** CLOCK_MONOTONIC in integer nanoseconds, read through bechamel's
    allocation-free stub. Only differences between readings mean
    anything; unlike [Unix.gettimeofday] (microsecond resolution) it
    never steps backwards. *)
