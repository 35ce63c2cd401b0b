open Fba_stdx

let slow_correct ~corrupted ~max_delay ~time:_ ~src ~dst _ =
  if Bitset.mem corrupted src || Bitset.mem corrupted dst then 1 else max_delay
