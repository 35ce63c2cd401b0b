(* The grid baseline with its delivery hook, the list-returning
   [on_receive], wrapped in one aggregated "grid.receive" span per
   round (see {!Timed}). *)

include Fba_baselines.Grid_aetoe

let on_receive cfg st ~round ~src m =
  Spans.span "grid.receive" (fun () -> on_receive cfg st ~round ~src m)
