(* Print the wide experiment's report for AER, the grid and naive at
   n = 256 and 512, two seeds each, sharded over JOBS domains:
   [wide.exe JOBS]. The default grid (n = 16384 and 32768) takes
   minutes and gigabytes; this one runs the same cells, layouts,
   crossover table and fitted exponents in under a second. *)
open Fba_harness

let () =
  let jobs = int_of_string Sys.argv.(1) in
  let seeds = Runner.seeds 2 in
  let cells =
    List.concat_map
      (fun variant -> List.map (fun n -> { Exp_wide.variant; n; seeds }) [ 256; 512 ])
      [ Exp_wide.Aer; Grid; Naive ]
  in
  Exp_wide.render ~full:false ~out:stdout (Fba_stdx.Pool.map_list ~jobs Exp_wide.run_cell cells)
