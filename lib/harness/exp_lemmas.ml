open Fba_stdx
open Fba_core
module Attacks = Fba_adversary.Aer_attacks

let sizes full = if full then [ 128; 256; 512; 1024 ] else [ 64; 128; 256 ]
let seed_count = 3

type cell =
  | Push_safety of { n : int; seeds : int64 list }
  | Decision of { n : int; mode : [ `Snr | `Sr | `Async ]; seeds : int64 list }
  | End_to_end of { n : int; engine : [ `Sync | `Async ]; seeds : int64 list }
  | Phase_breakdown of { n : int; seed : int64 }

let cell_size = function
  | Push_safety { n; _ } | Decision { n; _ } | End_to_end { n; _ } | Phase_breakdown { n; _ }
    -> n

type push_safety_row = {
  n : int;
  d_i : int;
  max_push : int;
  lx_per_n : float;
  missing : int;
  wrong : int;
  agreed : float;
  rounds : float;
}

type decision_row = {
  n : int;
  label : string;
  p95 : float;
  worst : int option;
  decided : float;
  agreed : float;
}

type e2e_row = {
  n : int;
  label : string;
  rounds : float;
  msgs : float;
  bits : float;
  agreed : float;
}

type phase_breakdown_row = { n : int; total_bits : int; rendered : string }

type row =
  | Push_safety_row of push_safety_row
  | Decision_row of decision_row
  | End_to_end_row of e2e_row
  | Phase_breakdown_row of phase_breakdown_row

let name = "lemmas"

let grid ~full =
  let seeds = Runner.seeds seed_count in
  let push = List.map (fun n -> Push_safety { n; seeds }) (sizes full) in
  let decision =
    List.concat_map
      (fun n ->
        List.map (fun mode -> Decision { n; mode; seeds }) [ `Snr; `Sr; `Async ])
      (sizes full)
  in
  let e2e =
    List.concat_map
      (fun n -> List.map (fun engine -> End_to_end { n; engine; seeds }) [ `Sync; `Async ])
      (sizes full)
  in
  let breakdown =
    [ Phase_breakdown { n = List.fold_left max 0 (sizes full); seed = List.hd (Runner.seeds 1) } ]
  in
  push @ decision @ e2e @ breakdown

(* Lemmas 3, 4, 5, 7: push-phase bounds and safety under the strongest
   flooding workload — shared junk, push flooding and bogus answers. *)
let flood_setup = { Runner.default_setup with Runner.junk = Scenario.Junk_shared 2 }

let flood_adversary sc =
  Attacks.(compose sc [ push_flood ~fake_strings:3 sc; wrong_answer sc ])

(* Lemmas 6 and 8: decision-time tails, non-rushing vs rushing vs
   asynchronous cornering. The answer filter is set near its honest
   load so the attack has bite at simulated sizes (the paper's log² n
   headroom dwarfs the adversary budget at small n). *)
let cornering_setup ~n ~seed =
  let base =
    { Runner.default_setup with Runner.byzantine_fraction = 0.2; knowledgeable_fraction = 0.8 }
  in
  let probe = Runner.scenario_of_setup base ~n ~seed in
  let pf = Params.(probe.Scenario.params.d_j) + 2 in
  Runner.scenario_of_setup { base with Runner.pull_filter = Some pf } ~n ~seed

let run_cell = function
  | Push_safety { n; seeds } ->
    let runs =
      List.map
        (fun seed ->
          let sc = Runner.scenario_of_setup flood_setup ~n ~seed in
          Runner.aer_sync ~adversary:flood_adversary sc)
        seeds
    in
    let d_i = Params.((List.hd runs).Runner.scenario.Scenario.params.d_i) in
    let max_push = List.fold_left (fun a r -> max a r.Runner.push_max_messages) 0 runs in
    let lx_per_n =
      Stats.mean
        (Array.of_list
           (List.map (fun r -> float_of_int r.Runner.candidate_sum /. float_of_int n) runs))
    in
    let missing = List.fold_left (fun a r -> a + r.Runner.gstring_missing) 0 runs in
    let s = Obs.aggregate (List.map (fun r -> r.Runner.obs) runs) in
    Push_safety_row
      {
        n;
        d_i;
        max_push;
        lx_per_n;
        missing;
        wrong = s.Obs.total_wrong;
        agreed = s.Obs.mean_agreed;
        rounds = s.Obs.mean_rounds;
      }
  | Decision { n; mode; seeds } ->
    let label, runs =
      match mode with
      | `Snr ->
        ( "sync non-rushing (L8)",
          List.map
            (fun seed ->
              (Runner.aer_sync
                 ~config:{ Runner.default_config with Runner.mode = `Non_rushing }
                 ~adversary:(fun sc -> Attacks.cornering sc)
                 (cornering_setup ~n ~seed))
                .Runner.obs)
            seeds )
      | `Sr ->
        ( "sync rushing (L6)",
          List.map
            (fun seed ->
              (Runner.aer_sync
                 ~adversary:(fun sc -> Attacks.cornering sc)
                 (cornering_setup ~n ~seed))
                .Runner.obs)
            seeds )
      | `Async ->
        ( "async (L6/L10)",
          List.map
            (fun seed ->
              let r, norm =
                Runner.aer_async
                  ~adversary:(fun sc -> Attacks.async_cornering sc)
                  (cornering_setup ~n ~seed)
              in
              (* Normalize decision rounds by the delay bound. *)
              let o = r.Runner.obs in
              let scale = Obs.rescale_time o ~normalized_rounds:norm in
              { o with
                Obs.p95_decision_round = scale o.Obs.p95_decision_round;
                max_decision_round =
                  Option.map
                    (fun m -> int_of_float (ceil (scale (float_of_int m))))
                    o.Obs.max_decision_round })
            seeds )
    in
    let s = Obs.aggregate runs in
    Decision_row
      {
        n;
        label;
        p95 = s.Obs.mean_p95_decision;
        worst = s.Obs.worst_decision_round;
        decided = s.Obs.mean_decided;
        agreed = s.Obs.mean_agreed;
      }
  | End_to_end { n; engine; seeds } ->
    let msgs_per_n runs =
      Stats.mean (Array.of_list (List.map (fun (o : Obs.observation) -> o.Obs.msgs_per_node) runs))
    in
    (match engine with
    | `Sync ->
      let sync_obs =
        List.map
          (fun seed ->
            let sc = Runner.scenario_of_setup Runner.default_setup ~n ~seed in
            (Runner.aer_sync
               ~config:{ Runner.default_config with Runner.mode = `Non_rushing }
               ~adversary:Attacks.silent sc)
              .Runner.obs)
          seeds
      in
      let s = Obs.aggregate sync_obs in
      End_to_end_row
        {
          n;
          label = "sync non-rushing (L9)";
          rounds = s.Obs.mean_rounds;
          msgs = msgs_per_n sync_obs;
          bits = s.Obs.mean_bits_per_node;
          agreed = s.Obs.mean_agreed;
        }
    | `Async ->
      let async_runs =
        List.map
          (fun seed ->
            let sc = Runner.scenario_of_setup Runner.default_setup ~n ~seed in
            Runner.aer_async ~adversary:(fun sc -> Attacks.async_cornering sc) sc)
          seeds
      in
      let async_obs = List.map (fun ((r : Runner.aer_run), _) -> r.Runner.obs) async_runs in
      let s2 = Obs.aggregate async_obs in
      let mean_norm = Stats.mean (Array.of_list (List.map snd async_runs)) in
      End_to_end_row
        {
          n;
          label = "async (L10)";
          rounds = mean_norm;
          msgs = msgs_per_n async_obs;
          bits = s2.Obs.mean_bits_per_node;
          agreed = s2.Obs.mean_agreed;
        })
  | Phase_breakdown { n; seed } ->
    (* Per-phase breakdown next to the lemma gauges: the same flooding
       workload as the push/safety table, split by protocol phase so
       each lemma can be read against the traffic of the phase it
       bounds (Lemma 3/5 → push, Lemma 4/6 → poll, Lemmas on
       forwarding → fw1/fw2). *)
    let sc = Runner.scenario_of_setup flood_setup ~n ~seed in
    let run, tally = Runner.aer_phases ~adversary:flood_adversary sc in
    Phase_breakdown_row
      {
        n;
        total_bits = run.Runner.obs.Obs.total_bits_all;
        rendered = Fba_sim.Events.Tally.render_phases tally;
      }

let render ~full:_ ~out rows =
  Printf.fprintf out "## Lemma-level reproduction\n\n";
  let push_rows = List.filter_map (function Push_safety_row r -> Some r | _ -> None) rows in
  if push_rows <> [] then begin
    let tbl = Table.create
        ~columns:
          [ ("n", Table.Right); ("d_i", Table.Right);
            ("max push msgs (L3)", Table.Right); ("sum|Lx|/n (L4)", Table.Right);
            ("gstring missing (L5)", Table.Right); ("wrong decisions (L7)", Table.Right);
            ("agreed", Table.Right); ("rounds", Table.Right) ]
    in
    List.iter
      (fun (r : push_safety_row) ->
        Table.add_row tbl
          [ Table.cell_int r.n; Table.cell_int r.d_i; Table.cell_int r.max_push;
            Table.cell_float r.lx_per_n; Table.cell_int r.missing;
            Table.cell_int r.wrong; Printf.sprintf "%.3f" r.agreed;
            Table.cell_float r.rounds ])
      push_rows;
    Printf.fprintf out
      "### Lemmas 3, 4, 5, 7 — push bounds and safety (push-flood + bogus-answer adversary, \
       shared junk)\n\nLemma 3 expects max push msgs = O(d_i); Lemma 4 expects sum|Lx|/n = O(1); \
       Lemmas 5 and 7 expect the last two counters to be 0 w.h.p.\n\n";
    output_string out (Table.to_markdown tbl)
  end;
  let decision_rows = List.filter_map (function Decision_row r -> Some r | _ -> None) rows in
  if decision_rows <> [] then begin
    let tbl = Table.create
        ~columns:
          [ ("n", Table.Right); ("mode", Table.Left); ("p95 decision", Table.Right);
            ("worst decision", Table.Left); ("decided", Table.Right); ("agreed", Table.Right) ]
    in
    List.iter
      (fun (r : decision_row) ->
        Table.add_row tbl
          [ Table.cell_int r.n; r.label; Table.cell_float r.p95;
            (match r.worst with Some x -> string_of_int x | None -> "incomplete");
            Printf.sprintf "%.3f" r.decided; Printf.sprintf "%.3f" r.agreed ])
      decision_rows;
    Printf.fprintf out
      "\n### Lemmas 6 and 8 — decision time under the cornering adversary (answer filter near \
       honest load)\n\nLemma 8 expects the non-rushing column constant in n; Lemmas 6/10 allow \
       the rushing and async tails to grow slowly (O(log n / log log n)).\n\n";
    output_string out (Table.to_markdown tbl)
  end;
  let e2e_rows = List.filter_map (function End_to_end_row r -> Some r | _ -> None) rows in
  if e2e_rows <> [] then begin
    let tbl = Table.create
        ~columns:
          [ ("n", Table.Right); ("engine", Table.Left); ("rounds", Table.Right);
            ("total msgs/n", Table.Right); ("bits/node", Table.Right); ("agreed", Table.Right) ]
    in
    List.iter
      (fun (r : e2e_row) ->
        Table.add_row tbl
          [ Table.cell_int r.n; r.label; Table.cell_float r.rounds;
            Table.cell_float r.msgs; Table.cell_float ~decimals:0 r.bits;
            Printf.sprintf "%.3f" r.agreed ])
      e2e_rows;
    Printf.fprintf out
      "\n### Lemmas 9 and 10 — end-to-end AER\n\nSync rounds should be constant; async \
       normalized rounds near-constant (bounded by O(log n/log log n)); bits/node \
       polylogarithmic.\n\n";
    output_string out (Table.to_markdown tbl);
    Printf.fprintf out "\n"
  end;
  List.iter
    (function
      | Phase_breakdown_row r ->
        Printf.fprintf out
          "\n### Per-phase traffic (same adversary as the push/safety table, n=%d, one seed)\n\n\
           Phase attribution is by message kind (push / poll / fw1 / fw2), so the bits column \
           sums exactly to the run's total %d bits.\n\n"
          r.n r.total_bits;
        output_string out r.rendered;
        Printf.fprintf out "\n"
      | _ -> ())
    rows
