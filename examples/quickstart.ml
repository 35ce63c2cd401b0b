(* Quickstart: run the paper's full Byzantine Agreement protocol —
   almost-everywhere agreement on a fresh random string (committee
   phase), then AER to extend it to every correct node — and print what
   happened.

     dune exec examples/quickstart.exe *)

module Ba = Fba_harness.Ba

let () =
  let n = 256 in
  let byzantine_fraction = 0.10 in
  Printf.printf "Byzantine Agreement on a random string, n=%d, %.0f%% Byzantine\n\n" n
    (100.0 *. byzantine_fraction);
  let result = Ba.run_sync ~n ~seed:2013L ~byzantine_fraction () in
  (match result.Ba.gstring with
  | None -> print_endline "phase 1 failed to converge (should be very rare)"
  | Some gstring ->
    Printf.printf "phase 1 (committees): %.1f%% of nodes learned gstring\n"
      (100.0 *. result.Ba.ae_fraction);
    Printf.printf "phase 2 (AER):        %d of %d correct nodes decided gstring\n"
      result.Ba.agreed result.Ba.correct;
    Printf.printf "\nagreed string (%d bits): " (8 * String.length gstring);
    String.iter (fun c -> Printf.printf "%02x" (Char.code c)) gstring;
    print_newline ());
  Printf.printf "\ntotal rounds: %d\n" (Fba_sim.Metrics.rounds result.Ba.metrics);
  Printf.printf "amortized communication: %.0f bits per node (polylogarithmic — the paper's \
                 headline result)\n"
    (Fba_sim.Metrics.amortized_bits result.Ba.metrics);
  exit (if result.Ba.agreed = result.Ba.correct then 0 else 1)
