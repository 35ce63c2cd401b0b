(* Classical bit-output Byzantine Agreement via the paper's protocol.

   The paper's BA outputs a common random string; this example runs the
   classical reduction: the string seeds a common coin that drives a
   randomized binary agreement on real inputs — here, a 50/50 split, the
   hardest case, under a vote-splitting adversary. It also demonstrates
   the execution tracer on the AER phase.

     dune exec examples/binary_agreement.exe *)

module Ba = Fba_harness.Ba
module Tally = Fba_sim.Events.Tally

let () =
  let n = 128 in
  let inputs i = i mod 2 = 0 in
  Printf.printf
    "Binary agreement on a 50/50 input split, n=%d, 10%% Byzantine, vote-splitting adversary\n\n" n;
  let r = Ba.run_binary ~inputs ~n ~seed:4242L ~byzantine_fraction:0.10 () in
  (match r.Ba.decided_bit with
  | Some b ->
    Printf.printf "decision: %b (%d/%d correct nodes)\n" b r.Ba.agreed r.Ba.correct;
    Printf.printf "validity respected (decision was some correct node's input): %b\n"
      r.Ba.validity_respected
  | None -> print_endline "no decision");
  Printf.printf "total rounds across all three phases: %d\n\n"
    (Fba_sim.Metrics.rounds r.Ba.metrics);

  (* Bonus: trace an AER execution to see the paper's phase structure
     (pushes, then polls/pulls, then the Fw1 burst, Fw2s, answers). *)
  print_endline "AER message-kind trace (one row per round), n=64:";
  let module Engine = Fba_sim.Sync_engine.Make (Fba_core.Aer) in
  let sc =
    Fba_harness.Runner.scenario_of_setup Fba_harness.Runner.default_setup ~n:64 ~seed:7L
  in
  let tally = Tally.create ~n:64 () in
  let events = Fba_sim.Events.create () in
  Fba_sim.Events.attach events (Tally.consumer tally);
  let _ =
    Engine.run ~events ~config:(Fba_core.Aer.config_of_scenario sc) ~n:64 ~seed:7L
      ~adversary:
        (Fba_sim.Sync_engine.null_adversary ~corrupted:sc.Fba_core.Scenario.corrupted)
      ~mode:`Rushing ~max_rounds:30 ()
  in
  print_string (Tally.render_deliveries tally)
