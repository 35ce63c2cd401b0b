(* The benchmark's only clock: CLOCK_MONOTONIC in integer nanoseconds,
   read through bechamel's allocation-free stub. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
