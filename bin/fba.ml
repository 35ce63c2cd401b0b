(* Command-line front-end: run individual protocols or regenerate the
   paper's tables. `fba experiment all` reproduces everything. *)

open Cmdliner
module Attacks = Fba_adversary.Aer_attacks
module Ba = Fba_harness.Ba
module Runner = Fba_harness.Runner

let n_arg =
  Arg.(value & opt int 256 & info [ "n" ] ~docv:"N" ~doc:"System size (number of nodes).")

let byz_arg =
  Arg.(
    value
    & opt float 0.10
    & info [ "byzantine" ] ~docv:"FRACTION" ~doc:"Byzantine fraction, below 1/3.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed.")

let full_arg =
  Arg.(value & flag & info [ "full" ] ~doc:"Larger size grids and more seeds (slower).")

(* --- fba run-aer --- *)

let attack_arg =
  let attacks =
    [ ("silent", `Silent); ("flood", `Flood); ("cornering", `Cornering); ("capture", `Capture) ]
  in
  Arg.(
    value
    & opt (enum attacks) `Silent
    & info [ "attack" ] ~docv:"ATTACK" ~doc:"Adversary strategy: $(docv).")

let mode_arg =
  let modes = [ ("rushing", `Rushing); ("non-rushing", `Non_rushing); ("async", `Async) ] in
  Arg.(
    value
    & opt (enum modes) `Rushing
    & info [ "mode" ] ~docv:"MODE" ~doc:"Engine/adversary model: $(docv).")

let know_arg =
  Arg.(
    value
    & opt float 0.85
    & info [ "knowledgeable" ] ~docv:"FRACTION"
        ~doc:"Fraction of nodes that are correct and know gstring initially (above 1/2).")

(* A flag value the library rejects is a usage error, not a crash:
   report the library's message and exit 2, as [fba service] does for
   its own flag checks. Only turning the flags into run inputs is
   guarded; an exception raised during the run keeps cmdliner's
   internal-error exit. *)
let with_flags inputs run =
  match inputs () with
  | v -> run v
  | exception Invalid_argument msg ->
    prerr_endline ("fba: " ^ msg);
    2

let setup_of_flags byz know =
  { Runner.default_setup with Runner.byzantine_fraction = byz; knowledgeable_fraction = know }

let scenario_of_flags n byz know seed =
  Runner.scenario_of_setup (setup_of_flags byz know) ~n ~seed:(Int64.of_int seed)

let attack_name = function
  | `Silent -> "silent"
  | `Flood -> "flood"
  | `Cornering -> "cornering"
  | `Capture -> "capture"

let sync_attack attack sc =
  match attack with
  | `Silent -> Attacks.silent sc
  | `Flood -> Attacks.(compose sc [ push_flood sc; wrong_answer sc ])
  | `Cornering -> Attacks.cornering sc
  | `Capture -> Attacks.quorum_capture sc

(* One AER run under [mode]; async runs also return their normalized
   round count. *)
let run_mode ?(config = Runner.default_config) attack mode sc =
  match mode with
  | `Async ->
    let adversary sc =
      match attack with
      | `Cornering -> Attacks.async_cornering sc
      | _ -> Attacks.async_of_sync sc (sync_attack attack sc)
    in
    let r, norm = Runner.aer_async ~config ~adversary sc in
    (r, Some norm)
  | (`Rushing | `Non_rushing) as m ->
    (Runner.aer_sync ~config:{ config with Runner.mode = m } ~adversary:(sync_attack attack) sc,
     None)

let run_aer n byz know seed attack mode =
  with_flags (fun () -> scenario_of_flags n byz know seed) @@ fun sc ->
  let run, norm = run_mode attack mode sc in
  let obs = run.Runner.obs in
  Format.printf "AER n=%d byzantine=%.2f knowledgeable=%.2f@." n byz know;
  Format.printf "  rounds: %d%s@." obs.Fba_harness.Obs.rounds
    (match norm with Some x -> Printf.sprintf " (normalized %.1f)" x | None -> "");
  Format.printf "  decided: %.3f  agreed on gstring: %.3f  wrong: %d@."
    obs.Fba_harness.Obs.decided_fraction obs.Fba_harness.Obs.agreed_fraction
    obs.Fba_harness.Obs.wrong_decisions;
  Format.printf "  bits/node: %.0f  max node sent: %d bits  imbalance: %.2fx@."
    obs.Fba_harness.Obs.bits_per_node obs.Fba_harness.Obs.max_sent_bits
    obs.Fba_harness.Obs.load_imbalance;
  if obs.Fba_harness.Obs.agreed_fraction >= 1.0 then 0 else 1

let run_aer_cmd =
  let doc = "Run the AER almost-everywhere→everywhere protocol once." in
  Cmd.v
    (Cmd.info "run-aer" ~doc)
    Term.(const run_aer $ n_arg $ byz_arg $ know_arg $ seed_arg $ attack_arg $ mode_arg)

(* --- fba run-ba --- *)

let run_ba n byz seed =
  let seed = Int64.of_int seed in
  (* Phase 1's configuration, and phase 2's floor on n. *)
  with_flags (fun () ->
      ignore (Fba_aeba.Aeba.make_config ~n ~seed ~byzantine_fraction:byz ());
      ignore (Fba_core.Params.make ~n ~seed ()))
  @@ fun () ->
  let r = Ba.run_sync ~n ~seed ~byzantine_fraction:byz () in
  Format.printf "BA (aeba + AER) n=%d byzantine=%.2f@." n byz;
  Format.printf "  almost-everywhere fraction after phase 1: %.3f@." r.Ba.ae_fraction;
  Format.printf "  agreed: %d/%d correct nodes  rounds: %d  bits/node: %.0f@." r.Ba.agreed
    r.Ba.correct (Fba_sim.Metrics.rounds r.Ba.metrics)
    (Fba_sim.Metrics.amortized_bits r.Ba.metrics);
  (match r.Ba.gstring with
  | Some g ->
    Format.printf "  gstring (%d bits): " (8 * String.length g);
    String.iter (fun c -> Format.printf "%02x" (Char.code c)) g;
    Format.printf "@."
  | None -> Format.printf "  phase 1 failed to converge@.");
  if r.Ba.agreed = r.Ba.correct then 0 else 1

let run_ba_cmd =
  let doc = "Run the full Byzantine Agreement composition (aeba + AER)." in
  Cmd.v (Cmd.info "run-ba" ~doc) Term.(const run_ba $ n_arg $ byz_arg $ seed_arg)

(* --- fba trace --- *)

module Events = Fba_sim.Events

let jsonl_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "jsonl" ] ~docv:"FILE"
        ~doc:"Write the raw event stream as JSON Lines to $(docv) (\"-\" for stdout).")

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Print the per-round kind table as CSV, not markdown.")

let drop_rate_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "drop-rate" ] ~docv:"RATE"
        ~doc:
          "Off-model network condition: lose each delivery i.i.d. with probability $(docv) \
           (0 = the paper's reliable network).")

let partition_arg =
  Arg.(
    value
    & opt int 0
    & info [ "partition" ] ~docv:"ROUNDS"
        ~doc:
          "Off-model network condition: bisect the network from round 1 for $(docv) rounds \
           (0 = no partition).")

let run_trace n byz know seed attack mode jsonl csv drop_rate partition =
  with_flags (fun () ->
      let sc = scenario_of_flags n byz know seed in
      let net =
        Fba_sim.Net.(
          match (drop_rate > 0.0, partition > 0) with
          | false, false -> Reliable
          | true, false -> Drop { rate = drop_rate }
          | false, true -> Partition { from_round = 1; rounds = partition }
          | true, true ->
            Compose
              [ Drop { rate = drop_rate }; Partition { from_round = 1; rounds = partition } ])
      in
      ignore (Fba_sim.Net.instantiate net ~n ~seed:0L);
      (sc, net))
  @@ fun (sc, net) ->
  let sink = Events.create () in
  let tally =
    Events.Tally.create ~classify:(fun ~kind -> Fba_core.Aer.phase_of_kind kind) ~n ()
  in
  Events.attach sink (Events.Tally.consumer tally);
  let close_jsonl =
    match jsonl with
    | None -> fun () -> ()
    | Some "-" ->
      Events.attach sink (Events.Jsonl.writer stdout);
      fun () -> flush stdout
    | Some path ->
      let oc = open_out path in
      Events.attach sink (Events.Jsonl.writer oc);
      fun () -> close_out oc
  in
  let config = { Runner.default_config with Runner.events = Some sink; net } in
  let run, norm = run_mode ~config attack mode sc in
  close_jsonl ();
  let obs = run.Runner.obs in
  let clock = match mode with `Async -> "time step" | _ -> "round" in
  if jsonl <> Some "-" then begin
    Format.printf "AER execution trace, n=%d byzantine=%.2f attack=%s@.@." n byz
      (attack_name attack);
    Format.printf "Phase timeline (traffic split by message kind -> phase):@.@.";
    print_string (Events.Tally.render_phases tally);
    Format.printf "@.Deliveries per %s, by message kind:@.@." clock;
    print_string
      (if csv then Events.Tally.deliveries_csv tally else Events.Tally.render_deliveries tally);
    Format.printf "@.Drops by reason (adversary- and net-attributed):@.";
    (match Events.Tally.drops tally with
    | [] -> Format.printf "  (none)@."
    | reasons ->
      List.iter (fun (reason, count) -> Format.printf "  %-16s %d@." reason count) reasons);
    Format.printf "@.decided: %.3f of correct nodes  agreed: %.3f  %ss: %d%s@."
      obs.Fba_harness.Obs.decided_fraction obs.Fba_harness.Obs.agreed_fraction clock
      obs.Fba_harness.Obs.rounds
      (match norm with Some x -> Printf.sprintf " (normalized rounds %.1f)" x | None -> "")
  end;
  (* Accounting cross-check: kind-based phase attribution must repartition
     the run's total traffic exactly. *)
  let phase_bits = Events.Tally.total_bits tally in
  let total_bits = obs.Fba_harness.Obs.total_bits_all in
  if phase_bits = total_bits then begin
    if jsonl <> Some "-" then
      Format.printf "phase bits check: sum over phases = %d = Metrics.total_bits_all@."
        phase_bits;
    0
  end
  else begin
    Format.eprintf "phase bits MISMATCH: phases sum to %d but Metrics.total_bits_all = %d@."
      phase_bits total_bits;
    1
  end

let trace_cmd =
  let doc =
    "Trace one AER execution: phase timeline, per-round message kinds, drops by reason, \
     optional JSONL export. $(b,--drop-rate)/$(b,--partition) inject off-model network \
     conditions."
  in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(
      const run_trace $ n_arg $ byz_arg $ know_arg $ seed_arg $ attack_arg $ mode_arg
      $ jsonl_arg $ csv_arg $ drop_rate_arg $ partition_arg)

(* --- fba profile --- *)

module Prof = Fba_sim.Prof
module Telemetry = Fba_harness.Telemetry

let top_arg =
  Arg.(
    value
    & opt int 8
    & info [ "top" ] ~docv:"K" ~doc:"Rows in the handler-tag hot-spot table.")

let profile_json_arg =
  Arg.(
    value
    & flag
    & info [ "json" ]
        ~doc:"Emit the run's Telemetry JSON document (profile included) instead of tables.")

let run_profile n byz know seed attack mode top json =
  with_flags (fun () -> scenario_of_flags n byz know seed) @@ fun sc ->
  let prof = Prof.create () in
  let config = { Runner.default_config with Runner.prof = Some prof } in
  let run, norm = run_mode ~config attack mode sc in
  let rounds = Prof.rounds prof and slots = Prof.slots prof in
  let total_wall = Prof.total_wall_ns prof and total_alloc = Prof.total_alloc_words prof in
  if json then print_endline (Telemetry.to_json ~prof run)
  else begin
    let obs = run.Runner.obs in
    let clock = match mode with `Async -> "time step" | _ -> "round" in
    Format.printf "AER profile, n=%d byzantine=%.2f attack=%s mode=%s@." n byz
      (attack_name attack)
      (match mode with
      | `Async -> "async"
      | `Rushing -> "rushing"
      | `Non_rushing -> "non-rushing");
    Format.printf "run: %d %ss  wall %d ns (%.3f ms)  alloc %d words@." rounds clock
      total_wall
      (float_of_int total_wall /. 1e6)
      total_alloc;
    Format.printf "decided: %.3f  agreed: %.3f%s@.@." obs.Fba_harness.Obs.decided_fraction
      obs.Fba_harness.Obs.agreed_fraction
      (match norm with Some x -> Printf.sprintf "  (normalized rounds %.1f)" x | None -> "");
    (* Hot-spot table on the compiled dispatch tags. *)
    let tag_slots =
      List.filter
        (fun s -> Prof.slot_hits prof s > 0 || Prof.slot_wall prof s > 0)
        (List.init (slots - 1) Fun.id)
    in
    let by_wall =
      List.sort (fun a b -> compare (Prof.slot_wall prof b) (Prof.slot_wall prof a)) tag_slots
    in
    let shown = List.filteri (fun i _ -> i < top) by_wall in
    Format.printf "Handler tags, top %d by wall time:@." (List.length shown);
    Format.printf "  %-10s %10s %12s %7s %12s %10s@." "tag" "hits" "wall ns" "wall%"
      "alloc words" "words/hit";
    List.iter
      (fun s ->
        let hits = Prof.slot_hits prof s in
        let w = Prof.slot_wall prof s and a = Prof.slot_alloc prof s in
        Format.printf "  %-10s %10d %12d %6.1f%% %12d %10.1f@." (Prof.slot_name prof s) hits w
          (if total_wall = 0 then 0.0 else 100.0 *. float_of_int w /. float_of_int total_wall)
          a
          (if hits = 0 then 0.0 else float_of_int a /. float_of_int hits))
      shown;
    (* Phase x round matrices: slots folded into protocol phases via
       the same kind->phase map the trace timeline uses, plus the
       engine slot. Every cell of the profile lands in exactly one
       column, so each table's grand total equals the run total. *)
    let phase_of s =
      let name = Prof.slot_name prof s in
      if s = slots - 1 then "engine" else Fba_core.Aer.phase_of_kind name
    in
    let phases =
      List.fold_left
        (fun acc s -> if List.mem (phase_of s) acc then acc else acc @ [ phase_of s ])
        []
        (List.filter
           (fun s ->
             s = slots - 1 || Prof.slot_hits prof s > 0 || Prof.slot_wall prof s > 0
             || Prof.slot_alloc prof s > 0)
           (List.init slots Fun.id))
    in
    let cell metric r ph =
      let acc = ref 0 in
      for s = 0 to slots - 1 do
        if phase_of s = ph then acc := !acc + metric ~round:r ~slot:s
      done;
      !acc
    in
    let matrix title metric total =
      Format.printf "@.Phase x %s %s:@." clock title;
      Format.printf "  %5s" clock;
      List.iter (fun ph -> Format.printf " %12s" ph) phases;
      Format.printf " %12s@." "total";
      let col_sums = Array.make (List.length phases) 0 in
      for r = 0 to rounds - 1 do
        Format.printf "  %5d" r;
        let row_sum = ref 0 in
        List.iteri
          (fun i ph ->
            let v = cell metric r ph in
            col_sums.(i) <- col_sums.(i) + v;
            row_sum := !row_sum + v;
            Format.printf " %12d" v)
          phases;
        Format.printf " %12d@." !row_sum
      done;
      Format.printf "  %5s" "total";
      Array.iter (fun v -> Format.printf " %12d" v) col_sums;
      Format.printf " %12d@." (Array.fold_left ( + ) 0 col_sums);
      total
    in
    ignore (matrix "wall ns" (Prof.wall prof) total_wall);
    ignore (matrix "alloc words" (Prof.alloc prof) total_alloc);
    Format.printf "@."
  end;
  (* The matrix must repartition the run totals exactly (integer ns
     and words), mirroring the phase-bits cross-check of [fba trace]. *)
  if Prof.check prof then begin
    if not json then
      Format.printf
        "profile accounting check: cells sum to wall %d ns, alloc %d words = run totals@."
        total_wall total_alloc;
    0
  end
  else begin
    Format.eprintf
      "profile accounting MISMATCH: cells do not sum to the run totals wall %d ns / alloc \
       %d words@."
      total_wall total_alloc;
    1
  end

let profile_cmd =
  let doc =
    "Profile one AER execution: per-handler-tag hot-spot counters on the compiled dispatch \
     table, phase x round wall-clock and allocation matrices that must sum exactly to the \
     run totals (non-zero exit otherwise), and $(b,--json) Telemetry export."
  in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(
      const run_profile $ n_arg $ byz_arg $ know_arg $ seed_arg $ attack_arg $ mode_arg
      $ top_arg $ profile_json_arg)

(* --- fba service --- *)

module Service = Fba_harness.Service

let instances_arg =
  Arg.(
    value
    & opt int 64
    & info [ "instances" ] ~docv:"K" ~doc:"Number of BA instances to stream.")

let width_arg =
  Arg.(
    value
    & opt int 4
    & info [ "width" ] ~docv:"W"
        ~doc:
          "Concurrently open instances per worker domain (pipeline width). Affects only the \
           latency distribution, never per-instance results.")

let run_service n byz know seed attack instances width jobs =
  if jobs < 0 || instances < 0 || width < 1 then begin
    Format.eprintf "service: need --jobs >= 0, --instances >= 0, --width >= 1@.";
    2
  end
  else
    (* Every instance shares (n, setup); only the seed differs. *)
    with_flags (fun () -> ignore (scenario_of_flags n byz know seed)) @@ fun () ->
    let setup = setup_of_flags byz know in
    let adversary = sync_attack attack in
    let stream =
      { Service.setup; n; stream_seed = Int64.of_int seed; instances; width; jobs }
    in
    let s = Service.run ~stream ~adversary () in
    (* Deterministic per-instance trace to stdout (byte-identical for
       every width/jobs value); wall-clock summary to stderr. *)
    Service.pp_trace stdout s;
    flush stdout;
    Printf.eprintf "[service] n=%d instances=%d width=%d jobs=%d: %.2f inst/s, p50 %.3f ms, p99 %.3f ms\n%!"
      n instances width jobs s.Service.instances_per_sec
      (float_of_int s.Service.p50_instance_latency_ns /. 1e6)
      (float_of_int s.Service.p99_instance_latency_ns /. 1e6);
    0

(* --- fba experiment --- *)

module Experiment = Fba_harness.Experiment

let experiments : Experiment.t list =
  [
    (module Fba_harness.Exp_fig1a);
    (module Fba_harness.Exp_fig1b);
    (module Fba_harness.Exp_lemmas);
    (module Fba_harness.Exp_samplers);
    (module Fba_harness.Exp_ablation);
    (module Fba_harness.Exp_robustness);
    (module Fba_harness.Exp_wide);
  ]

let exp_arg =
  let choices =
    ("all", None) :: List.map (fun e -> (Experiment.name e, Some e)) experiments
  in
  Arg.(
    required
    & pos 0 (some (enum choices)) None
    & info [] ~docv:"EXPERIMENT"
        ~doc:"One of fig1a, fig1b, lemmas, samplers, ablation, robustness, wide, all.")

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the sweep (grid cells are sharded across them; output is \
           byte-identical for every value). 0 (default) auto-sizes to the machine; 1 forces \
           sequential execution.")

let run_experiment which full jobs =
  if jobs < 0 then begin
    Format.eprintf "--jobs must be non-negative@.";
    2
  end
  else begin
    (match which with
    | Some e -> Experiment.run ~jobs ~full e ~out:stdout ()
    | None -> List.iter (fun e -> Experiment.run ~jobs ~full e ~out:stdout ()) experiments);
    0
  end

let experiment_cmd =
  let doc = "Regenerate the paper's tables and lemma-level checks." in
  Cmd.v (Cmd.info "experiment" ~doc) Term.(const run_experiment $ exp_arg $ full_arg $ jobs_arg)

let service_cmd =
  let doc =
    "Stream many BA instances through the agreement service (each a fresh one-shot run on a \
     reused lane mailbox): per-instance traces (deterministic, stdout) plus throughput and \
     pipelined-latency percentiles (stderr)."
  in
  Cmd.v (Cmd.info "service" ~doc)
    Term.(
      const run_service $ n_arg $ byz_arg $ know_arg $ seed_arg $ attack_arg $ instances_arg
      $ width_arg $ jobs_arg)

let main_cmd =
  let doc = "Fast Byzantine Agreement (Braud-Santoni, Guerraoui, Huc; PODC 2013) — simulator" in
  Cmd.group (Cmd.info "fba" ~version:"1.0.0" ~doc)
    [ run_aer_cmd; run_ba_cmd; trace_cmd; profile_cmd; experiment_cmd; service_cmd ]

let () = exit (Cmd.eval' main_cmd)
