open Fba_stdx
open Fba_core
module Attacks = Fba_adversary.Aer_attacks

let n_of full = if full then 512 else 256
let seed_count full = if full then 3 else 2

type cell =
  | Quorum of { n : int; d : int; seeds : int64 list }
  | Filter of { n : int; label : string; pf : int; d_j : int; seeds : int64 list }
  | Gstring of { n : int; c : int; bits : int; budget : int; seeds : int64 list }
  | Semantics of { n : int; label : string; strict : bool; attempts : int; seeds : int64 list }
  | Adaptive of { n : int; adaptive : bool; seeds : int64 list }

type quorum_row = { d : int; agreed : float; missing : int; bits : float; p95 : float }
type filter_row = {
  label : string;
  d_j : int;
  decided : float;
  agreed : float;
  p95 : float;
  worst : int option;
}
type gstring_row = { label : string; budget : int; frac : float; missing : int; agreed : float }
type semantics_row = { label : string; decided : float; agreed : float; p95 : float }
type adaptive_row = { label : string; denied : int; others_agreed : float }

type row =
  | Quorum_row of quorum_row
  | Filter_row of filter_row
  | Gstring_row of gstring_row
  | Semantics_row of semantics_row
  | Adaptive_row of adaptive_row

let name = "ablation"

(* Sweep 2's filter grid is anchored at the poll-list size the
   auto-sizer picks for this n (probed once, deterministically). *)
let filter_base =
  { Runner.default_setup with Runner.byzantine_fraction = 0.2; knowledgeable_fraction = 0.8 }

let grid ~full =
  let n = n_of full in
  let seeds = Runner.seeds (seed_count full) in
  let quorum = List.map (fun d -> Quorum { n; d; seeds }) [ 9; 13; 17; 25; 33; 45 ] in
  let filter =
    let probe = Runner.scenario_of_setup filter_base ~n ~seed:1L in
    let d_j = Params.(probe.Scenario.params.d_j) in
    let log2n = Intx.ceil_log2 n in
    List.map
      (fun (label, pf) -> Filter { n; label; pf; d_j; seeds })
      [
        (Printf.sprintf "d_j/2 = %d (below honest load)" (d_j / 2), max 1 (d_j / 2));
        (Printf.sprintf "d_j = %d" d_j, d_j);
        (Printf.sprintf "d_j+8 = %d" (d_j + 8), d_j + 8);
        (Printf.sprintf "2*d_j = %d" (2 * d_j), 2 * d_j);
        (Printf.sprintf "log^2 n = %d (paper)" (log2n * log2n), log2n * log2n);
      ]
  in
  let gstring =
    let log2n = Intx.ceil_log2 n in
    List.map
      (fun c ->
        let bits = max 6 (c * log2n) in
        let free_bits = bits / 3 in
        let budget = min (if full then 512 else 128) (Intx.pow 2 (min free_bits 20)) in
        Gstring { n; c; bits; budget; seeds })
      [ 1; 2; 4; 8 ]
  in
  let semantics =
    List.map
      (fun (label, strict, attempts) -> Semantics { n; label; strict; attempts; seeds })
      [
        ("buffered replay (ours, default)", false, 1);
        ("literal drop (paper pseudo-code)", true, 1);
        ("re-poll x3 + deliberately lax quorums", false, 3);
      ]
  in
  let adaptive = List.map (fun adaptive -> Adaptive { n; adaptive; seeds }) [ false; true ] in
  quorum @ filter @ gstring @ semantics @ adaptive

let summarize runs =
  let obs = List.map (fun (r : Runner.aer_run) -> r.Runner.obs) runs in
  Obs.aggregate obs

let semantics_setup =
  { Runner.default_setup with Runner.byzantine_fraction = 0.15; knowledgeable_fraction = 0.70 }

let adaptive_byz = 0.2
let adaptive_victims = 2

let run_cell = function
  | Quorum { n; d; seeds } ->
    (* Sweep 1: quorum size, under a harsher fault mix than the
       auto-sizer would pick for, so the failure region is visible. *)
    let setup =
      { Runner.default_setup with
        Runner.byzantine_fraction = 0.2;
        knowledgeable_fraction = 0.75;
        d_override = Some (d, d, d) }
    in
    let runs =
      List.map
        (fun seed ->
          Runner.aer_sync ~adversary:Attacks.silent (Runner.scenario_of_setup setup ~n ~seed))
        seeds
    in
    let s = summarize runs in
    let missing = List.fold_left (fun a r -> a + r.Runner.gstring_missing) 0 runs in
    Quorum_row
      {
        d;
        agreed = s.Obs.mean_agreed;
        missing;
        bits = s.Obs.mean_bits_per_node;
        p95 = s.Obs.mean_p95_decision;
      }
  | Filter { n; label; pf; d_j; seeds } ->
    (* Sweep 2: the Algorithm-3 answer filter under cornering. *)
    let runs =
      List.map
        (fun seed ->
          Runner.aer_sync
            ~adversary:(fun sc -> Attacks.cornering sc)
            (Runner.scenario_of_setup { filter_base with Runner.pull_filter = Some pf } ~n ~seed))
        seeds
    in
    let s = summarize runs in
    Filter_row
      {
        label;
        d_j;
        decided = s.Obs.mean_decided;
        agreed = s.Obs.mean_agreed;
        p95 = s.Obs.mean_p95_decision;
        worst = s.Obs.worst_decision_round;
      }
  | Gstring { n; c; bits; budget; seeds } ->
    (* Sweep 3: gstring length (the constant c of Lemma 5). The
       adversary contributes the trailing 1/3−ε of gstring's bits and
       may enumerate its completions of the fixed random prefix,
       looking for one whose push quorums are bad. Quorums are
       deliberately sized one notch lax (per-run miss budget 1.0) so
       the failure region is visible. *)
    let free_bits = bits / 3 in
    let setup =
      { Runner.default_setup with
        Runner.byzantine_fraction = 0.2;
        knowledgeable_fraction = 0.75;
        gstring_bits = Some bits;
        per_run_miss = 1.0 }
    in
    let runs =
      List.map
        (fun seed ->
          let probe = Runner.scenario_of_setup setup ~n ~seed in
          let params = probe.Scenario.params in
          let rng =
            Prng.create (Hash64.finish (Hash64.add_string (Hash64.init seed) "gsearch"))
          in
          let prefix = Bytes.unsafe_to_string (Prng.bits rng bits) in
          let bad_gstring, frac =
            Fba_samplers.Property_check.worst_completion_search (Params.sampler_i params)
              ~good:probe.Scenario.knowledgeable ~rng ~tries:budget ~prefix ~free_bits
          in
          let wl_rng =
            Prng.create (Hash64.finish (Hash64.add_string (Hash64.init seed) "workload"))
          in
          let sc =
            Scenario.make ~junk:setup.Runner.junk ~gstring:bad_gstring ~params ~rng:wl_rng
              ~byzantine_fraction:setup.Runner.byzantine_fraction
              ~knowledgeable_fraction:setup.Runner.knowledgeable_fraction ()
          in
          (Runner.aer_sync ~adversary:Attacks.silent sc, frac))
        seeds
    in
    let s = summarize (List.map fst runs) in
    let missing = List.fold_left (fun a (r, _) -> a + r.Runner.gstring_missing) 0 runs in
    let frac = Stats.mean (Array.of_list (List.map snd runs)) in
    Gstring_row
      {
        label = Printf.sprintf "%d (c=%d)" bits c;
        budget;
        frac;
        missing;
        agreed = s.Obs.mean_agreed;
      }
  | Semantics { n; label; strict; attempts; seeds } ->
    (* Sweep 4: buffering vs the paper's literal message-dropping
       (DESIGN.md substitution 6), and the re-poll extension. *)
    let runs =
      List.map
        (fun seed ->
          let setup =
            if attempts > 1 then { semantics_setup with Runner.per_run_miss = 0.5 }
            else semantics_setup
          in
          let probe = Runner.scenario_of_setup setup ~n ~seed in
          let params = probe.Scenario.params in
          let params =
            if attempts > 1 then
              Params.make ~d_i:Params.(params.d_i) ~d_h:Params.(params.d_h)
                ~d_j:Params.(params.d_j) ~gstring_bits:Params.(params.gstring_bits)
                ~pull_filter:Params.(params.pull_filter) ~max_poll_attempts:attempts ~n
                ~seed ()
            else params
          in
          let wl_rng =
            Prng.create (Hash64.finish (Hash64.add_string (Hash64.init seed) "workload"))
          in
          let sc =
            Scenario.make ~junk:setup.Runner.junk ~params ~rng:wl_rng
              ~byzantine_fraction:setup.Runner.byzantine_fraction
              ~knowledgeable_fraction:setup.Runner.knowledgeable_fraction ()
          in
          let cfg = Aer.config_of_scenario ~strict_drop:strict sc in
          let module E = Fba_sim.Sync_engine.Make (Aer) in
          let res =
            E.run ~quiet_limit:(Params.quiet_limit params) ~config:cfg ~n ~seed:params.Params.seed
              ~adversary:(Attacks.silent sc) ~mode:`Rushing ~max_rounds:200 ()
          in
          Obs.of_metrics ~metrics:res.Fba_sim.Sync_engine.metrics
            ~outputs:res.Fba_sim.Sync_engine.outputs ~reference:(Some sc.Scenario.gstring) ())
        seeds
    in
    let s = Obs.aggregate runs in
    Semantics_row
      {
        label;
        decided = s.Obs.mean_decided;
        agreed = s.Obs.mean_agreed;
        p95 = s.Obs.mean_p95_decision;
      }
  | Adaptive { n; adaptive; seeds } ->
    (* Sweep 5: the non-adaptive-adversary assumption (Section 2.1).
       Same corruption budget, chosen either uniformly (the paper's
       model) or adaptively after seeing the samplers — seizing the
       victims' push quorums I(gstring, v) outright. *)
    let byz = adaptive_byz and kn = 0.75 in
    let victims = adaptive_victims in
    let denied = ref 0 and agreed = ref 0 and correct_others = ref 0 in
    List.iter
      (fun seed ->
        let params = Params.make_for ~n ~seed ~byzantine_fraction:byz ~knowledgeable_fraction:kn () in
        let rng = Prng.create (Hash64.finish (Hash64.add_string (Hash64.init seed) "adaptive")) in
        let gstring = Bytes.unsafe_to_string (Prng.bits rng Params.(params.gstring_bits)) in
        let victim_ids = List.init victims (fun i -> i) in
        let budget = int_of_float (byz *. float_of_int n) in
        let corrupted =
          if adaptive then
            Fba_adversary.Corruption.seize_push_quorum ~sampler_i:(Params.sampler_i params)
              ~gstring ~victims:victim_ids ~n ~rng ~count:budget
          else Fba_adversary.Corruption.random ~n ~rng ~count:budget
        in
        (* Knowledge assignment: victims are deliberately ignorant so
           they must learn gstring through the protocol. *)
        let initial =
          Array.init n (fun i ->
              if List.mem i victim_ids || Bitset.mem corrupted i || i mod 10 = 9 then
                Printf.sprintf "junk-%d" i
              else gstring)
        in
        let sc = Scenario.of_assignment ~params ~gstring ~corrupted ~initial () in
        let cfg = Aer.config_of_scenario sc in
        let module E = Fba_sim.Sync_engine.Make (Aer) in
        let res =
          E.run ~config:cfg ~n ~seed:params.Params.seed ~adversary:(Attacks.silent sc)
            ~mode:`Rushing ~max_rounds:100 ()
        in
        List.iter
          (fun v ->
            if Scenario.is_correct sc v && res.Fba_sim.Sync_engine.outputs.(v) <> Some gstring
            then incr denied)
          victim_ids;
        Array.iteri
          (fun i o ->
            if Scenario.is_correct sc i && not (List.mem i victim_ids) then begin
              incr correct_others;
              if o = Some gstring then incr agreed
            end)
          res.Fba_sim.Sync_engine.outputs)
      seeds;
    Adaptive_row
      {
        label = (if adaptive then "adaptive quorum seizure" else "uniform (paper's model)");
        denied = !denied;
        others_agreed = float_of_int !agreed /. float_of_int (max 1 !correct_others);
      }

let render ~full ~out rows =
  let n = n_of full in
  Printf.fprintf out "## Design-choice ablations\n\n";
  let quorum_rows = List.filter_map (function Quorum_row r -> Some r | _ -> None) rows in
  if quorum_rows <> [] then begin
    let tbl = Table.create
        ~columns:
          [ ("d (all samplers)", Table.Right); ("agreed", Table.Right);
            ("gstring missing", Table.Right); ("bits/node", Table.Right);
            ("p95 decision", Table.Right) ]
    in
    List.iter
      (fun (r : quorum_row) ->
        Table.add_row tbl
          [ Table.cell_int r.d; Printf.sprintf "%.3f" r.agreed; Table.cell_int r.missing;
            Table.cell_float ~decimals:0 r.bits; Table.cell_float r.p95 ])
      quorum_rows;
    Printf.fprintf out
      "### Quorum-size sweep (n=%d, byz=0.20, knowledgeable=0.75, silent adversary)\n\n\
       Small quorums leave Byzantine majorities in push quorums and poll lists (missed \
       gstrings, failed agreement); large quorums multiply the Fw1 fan-out cost \
       (bits/node grows as d^3).\n\n" n;
    output_string out (Table.to_markdown tbl)
  end;
  let filter_rows = List.filter_map (function Filter_row r -> Some r | _ -> None) rows in
  (match filter_rows with
  | [] -> ()
  | first :: _ ->
    let tbl = Table.create
        ~columns:
          [ ("pull filter", Table.Left); ("decided", Table.Right); ("agreed", Table.Right);
            ("p95 decision", Table.Right); ("worst decision", Table.Left) ]
    in
    List.iter
      (fun (r : filter_row) ->
        Table.add_row tbl
          [ r.label; Printf.sprintf "%.3f" r.decided; Printf.sprintf "%.3f" r.agreed;
            Table.cell_float r.p95;
            (match r.worst with Some x -> string_of_int x | None -> "incomplete") ])
      filter_rows;
    Printf.fprintf out
      "\n### Pull-filter sweep under cornering (n=%d, byz=0.20; honest answer load is about \
       d_j=%d per node)\n\nBelow the honest load most nodes mute themselves and decisions \
       stall by several multiples (with tight enough budgets the system can deadlock \
       outright); just above it the adversary's budget buys modest delay; at the paper's \
       log^2 n the attack budget is absorbed entirely.\n\n" n first.d_j;
    output_string out (Table.to_markdown tbl));
  let gstring_rows = List.filter_map (function Gstring_row r -> Some r | _ -> None) rows in
  if gstring_rows <> [] then begin
    let tbl = Table.create
        ~columns:
          [ ("gstring bits", Table.Left); ("adversary budget", Table.Right);
            ("bad quorums (worst completion)", Table.Right);
            ("gstring missing", Table.Right); ("agreed", Table.Right) ]
    in
    List.iter
      (fun (r : gstring_row) ->
        Table.add_row tbl
          [ r.label; Table.cell_int r.budget; Table.cell_float ~decimals:4 r.frac;
            Table.cell_int r.missing; Printf.sprintf "%.3f" r.agreed ])
      gstring_rows;
    Printf.fprintf out
      "\n### gstring-length sweep with adversarially completed gstring (Lemma 5's constant c, \
       n=%d, deliberately lax quorums)\n\nAt c=1 the adversary's bit share gives it almost no \
       completions to search; larger c buys it a bigger search space. Note the direction: with \
       {e hash-based} samplers the per-string bad-quorum probability is independent of c, so a \
       larger c cannot dilute the bad strings the way Lemma 5's counting argument (over an \
       existence-style sampler with O(n) bad inputs in the whole domain) requires — see \
       EXPERIMENTS.md for the discussion of this theory/practice gap. What protects the hash \
       instantiation is quorum sizing (sweep 1), not gstring length.\n\n" n;
    output_string out (Table.to_markdown tbl)
  end;
  let semantics_rows = List.filter_map (function Semantics_row r -> Some r | _ -> None) rows in
  if semantics_rows <> [] then begin
    let tbl = Table.create
        ~columns:
          [ ("variant", Table.Left); ("decided", Table.Right); ("agreed", Table.Right);
            ("p95 decision", Table.Right) ]
    in
    List.iter
      (fun (r : semantics_row) ->
        Table.add_row tbl
          [ r.label; Printf.sprintf "%.3f" r.decided; Printf.sprintf "%.3f" r.agreed;
            Table.cell_float r.p95 ])
      semantics_rows;
    Printf.fprintf out
      "\n### Message semantics and the re-poll extension (n=%d, byz=0.15, knowledgeable=0.70)\n\n\
       Literal dropping starves nodes whose quorum members decide late in a synchronous \
       schedule (substitution 6). The re-poll row uses deliberately undersized quorums \
       (per-run miss budget 0.5) to show attempts>1 recovering nodes whose first poll list \
       drew a Byzantine majority.\n\n" n;
    output_string out (Table.to_markdown tbl);
    Printf.fprintf out "\n"
  end;
  let adaptive_rows = List.filter_map (function Adaptive_row r -> Some r | _ -> None) rows in
  if adaptive_rows <> [] then begin
    let tbl = Table.create
        ~columns:
          [ ("corruption", Table.Left); ("victims denied gstring", Table.Right);
            ("other correct nodes agreed", Table.Right) ]
    in
    List.iter
      (fun (r : adaptive_row) ->
        Table.add_row tbl
          [ r.label; Table.cell_int r.denied; Printf.sprintf "%.3f" r.others_agreed ])
      adaptive_rows;
    Printf.fprintf out
      "\n### The non-adaptive assumption (n=%d, byz=%.2f, %d designated victims per run)\n\n\
       An adversary allowed to corrupt after seeing the public samplers seizes the victims' \
       Input Quorums I(gstring, v) with a sliver of its budget and denies them gstring \
       permanently — no quorum size fixes this, which is why the paper (after [LSP82]) \
       assumes corruption is chosen before the execution:\n\n" n adaptive_byz adaptive_victims;
    output_string out (Table.to_markdown tbl);
    Printf.fprintf out "\n"
  end
