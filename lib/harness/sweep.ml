let resolve_jobs j = if j > 0 then j else Fba_stdx.Pool.recommended_jobs ()

(* Opt-in heartbeat: one stderr line per completed unit. Long grids and
   instance streams otherwise run for minutes with no sign of life.
   stderr only — stdout stays byte-identical — and the completion
   counter is atomic because units finish on arbitrary pool domains.
   The running delivery-plane high-water ({!Fba_sim.Batch.Peak} —
   engines note it at run end, across all domains) shows the memory
   ceiling live, not only post-mortem. *)
let heartbeat ~label ~total =
  match Sys.getenv_opt "FBA_PROGRESS" with
  | None | Some "" | Some "0" -> fun () -> ()
  | Some _ ->
    let t0 = Fba_stdx.Monotonic.now_ns () in
    let done_ = Atomic.make 0 in
    fun () ->
      let k = 1 + Atomic.fetch_and_add done_ 1 in
      let dt = float_of_int (max 1 (Fba_stdx.Monotonic.now_ns () - t0)) /. 1e9 in
      Printf.eprintf "[%s] %d/%d, %.1f/s, peak mailbox words %d\n%!" label k total
        (float_of_int k /. dt) (Fba_sim.Batch.Peak.get ())

let cells ~jobs run_cell grid =
  let tick = heartbeat ~label:"sweep" ~total:(List.length grid) in
  Fba_stdx.Pool.map_list ~jobs:(resolve_jobs jobs)
    (fun cell ->
      let row = run_cell cell in
      tick ();
      row)
    grid
