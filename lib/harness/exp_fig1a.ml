open Fba_stdx
module Attacks = Fba_adversary.Aer_attacks

let sizes full = if full then [ 128; 256; 512; 1024 ] else [ 64; 128; 256 ]
let seed_count full = if full then 3 else 2

type variant = Grid | Aer_snr | Aer_sr | Aer_async

let variant_name = function
  | Grid -> "grid (KLST11-like)"
  | Aer_snr -> "AER sync non-rushing"
  | Aer_sr -> "AER sync rushing"
  | Aer_async -> "AER async"

(* Load-balance section: the paper's "AER is not load-balanced" claim
   needs quorums sized below the safe regime, forced explicitly. *)
let lb_setup =
  { Runner.default_setup with
    Runner.byzantine_fraction = 0.25;
    knowledgeable_fraction = 0.70;
    d_override = Some (14, 14, 14) }

type cell =
  | Main of { variant : variant; n : int; seeds : int64 list }
  | Lb_aer of { label : string; capture : bool; n : int; seeds : int64 list }
  | Lb_ks09 of { label : string; flood : bool; n : int; seeds : int64 list }
  | Lb_relay of { n : int; seeds : int64 list }

type main_row = {
  variant : variant;
  n : int;
  mean_time : float;
  mean_bits : float;
  mean_max_sent : float;
  mean_imbalance : float;
  mean_agreed : float;
  model_pred : float option;  (* AER SNR only: uncalibrated d_h^2 * d_j * msg_bits *)
}

type lb_aer_row = {
  label : string;
  n : int;
  mean_lx : float;
  max_lx : int;
  mean_max_sent : float;
  mean_agreed : float;
}

type lb_ks09_row = { label : string; n : int; max_recv : int; mean_agreed : float }
type lb_relay_row = { n : int; mean_max_sent : float; mean_agreed : float }

type row =
  | Main_row of main_row
  | Lb_aer_row of lb_aer_row
  | Lb_ks09_row of lb_ks09_row
  | Lb_relay_row of lb_relay_row

let name = "fig1a"

let grid ~full =
  let seeds = Runner.seeds (seed_count full) in
  let main =
    List.concat_map
      (fun variant -> List.map (fun n -> Main { variant; n; seeds }) (sizes full))
      [ Grid; Aer_snr; Aer_sr; Aer_async ]
  in
  let lb =
    List.concat_map
      (fun n ->
        [
          Lb_aer { label = "AER, silent adversary"; capture = false; n; seeds };
          Lb_aer { label = "AER, quorum-capture"; capture = true; n; seeds };
          Lb_ks09 { label = "KS09-like push, silent"; flood = false; n; seeds };
          Lb_ks09 { label = "KS09-like push, flooded"; flood = true; n; seeds };
          Lb_relay { n; seeds };
        ])
      (sizes full)
  in
  main @ lb

let run_variant variant ~n ~seed =
  let sc = Runner.scenario_of_setup Runner.default_setup ~n ~seed in
  match variant with
  | Grid -> (Runner.run_grid sc, None)
  | Aer_snr ->
    let config = { Runner.default_config with Runner.mode = `Non_rushing } in
    let r = Runner.aer_sync ~config ~adversary:(fun sc -> Attacks.cornering sc) sc in
    (r.Runner.obs, None)
  | Aer_sr ->
    let r = Runner.aer_sync ~adversary:(fun sc -> Attacks.cornering sc) sc in
    (r.Runner.obs, None)
  | Aer_async ->
    let r, norm = Runner.aer_async ~adversary:(fun sc -> Attacks.async_cornering sc) sc in
    (r.Runner.obs, Some norm)

(* Time metric: the 95th-percentile decision round among correct nodes
   (robust against the rare sized-out quorum miss that leaves a single
   node undecided), normalized for the async engine so rounds are
   comparable across engines. *)
let time_of (obs : Obs.observation) norm =
  let raw = obs.Obs.p95_decision_round in
  match norm with
  | Some normalized_rounds -> Obs.rescale_time obs ~normalized_rounds raw
  | None -> raw

(* Model check input: AER's traffic is dominated by the Fw1 fan-out,
   predicted per node as d_h^2 * d_j * (message bits). *)
let model_prediction ~n =
  let sc = Runner.scenario_of_setup Runner.default_setup ~n ~seed:1L in
  let p = sc.Fba_core.Scenario.params in
  let msg_bits =
    float_of_int
      Fba_core.Params.(p.gstring_bits + label_bits + (3 * Fba_core.Params.id_bits p))
  in
  float_of_int Fba_core.Params.(p.d_h * p.d_h * p.d_j) *. msg_bits

let run_cell = function
  | Main { variant; n; seeds } ->
    let per_seed = List.map (fun seed -> run_variant variant ~n ~seed) seeds in
    let obs_list = List.map fst per_seed in
    let s = Obs.aggregate obs_list in
    let times = List.map (fun (o, norm) -> time_of o norm) per_seed in
    Main_row
      {
        variant;
        n;
        mean_time = Stats.mean (Array.of_list times);
        mean_bits = s.Obs.mean_bits_per_node;
        mean_max_sent = s.Obs.mean_max_sent;
        mean_imbalance = s.Obs.mean_imbalance;
        mean_agreed = s.Obs.mean_agreed;
        model_pred = (if variant = Aer_snr then Some (model_prediction ~n) else None);
      }
  | Lb_aer { label; capture; n; seeds } ->
    let adv sc = if capture then Attacks.quorum_capture sc else Attacks.silent sc in
    let runs =
      List.map
        (fun seed -> Runner.aer_sync ~adversary:adv (Runner.scenario_of_setup lb_setup ~n ~seed))
        seeds
    in
    let s = Obs.aggregate (List.map (fun r -> r.Runner.obs) runs) in
    let mean_lx =
      Stats.mean
        (Array.of_list
           (List.map
              (fun r ->
                float_of_int r.Runner.candidate_sum
                /. float_of_int (Fba_core.Scenario.correct_count r.Runner.scenario))
              runs))
    in
    let max_lx = List.fold_left (fun acc r -> max acc r.Runner.candidate_max) 0 runs in
    Lb_aer_row
      {
        label;
        n;
        mean_lx;
        max_lx;
        mean_max_sent = s.Obs.mean_max_sent;
        mean_agreed = s.Obs.mean_agreed;
      }
  | Lb_ks09 { label; flood; n; seeds } ->
    (* The flood makes chosen victims' receive load explode — the hot
       spot AER's membership filter removes. *)
    let config = { Runner.default_config with Runner.flood } in
    let obs =
      List.map
        (fun seed -> Runner.ks09 ~config (Runner.scenario_of_setup lb_setup ~n ~seed))
        seeds
    in
    let s = Obs.aggregate obs in
    let max_recv =
      List.fold_left (fun acc (o : Obs.observation) -> max acc o.Obs.max_recv_bits) 0 obs
    in
    Lb_ks09_row { label; n; max_recv; mean_agreed = s.Obs.mean_agreed }
  | Lb_relay { n; seeds } ->
    (* The committee-relay extension: same workload, deterministic
       Θ~(√n) maximum load regardless of the adversary (its only
       traffic is pushed along a fixed public assignment). *)
    let relay_obs =
      List.map (fun seed -> Runner.run_relay (Runner.scenario_of_setup lb_setup ~n ~seed)) seeds
    in
    let sr = Obs.aggregate relay_obs in
    Lb_relay_row { n; mean_max_sent = sr.Obs.mean_max_sent; mean_agreed = sr.Obs.mean_agreed }

let render ~full ~out rows =
  let measurements = Table.create
      ~columns:
        [
          ("protocol", Table.Left); ("n", Table.Right); ("time", Table.Right);
          ("bits/node", Table.Right); ("max-node bits", Table.Right);
          ("imbalance", Table.Right); ("agreed", Table.Right);
        ]
  in
  (* (variant, n) -> (mean time, mean bits, mean imbalance) *)
  let series = Hashtbl.create 16 in
  List.iter
    (fun (r : _) ->
      match r with
      | Main_row m ->
        Hashtbl.add series (m.variant, m.n) (m.mean_time, m.mean_bits, m.mean_imbalance);
        Table.add_row measurements
          [
            variant_name m.variant; Table.cell_int m.n; Table.cell_float m.mean_time;
            Table.cell_float ~decimals:0 m.mean_bits;
            Table.cell_float ~decimals:0 m.mean_max_sent;
            Table.cell_float m.mean_imbalance;
            Printf.sprintf "%.3f" m.mean_agreed;
          ]
      | _ -> ())
    rows;
  Printf.fprintf out "## Figure 1(a) — almost-everywhere to everywhere protocols\n\n";
  Printf.fprintf out "### Measurements (byz=%.2f, knowledgeable=%.2f, cornering adversary)\n\n"
    Runner.default_setup.Runner.byzantine_fraction
    Runner.default_setup.Runner.knowledgeable_fraction;
  output_string out (Table.to_markdown measurements);
  (* Growth-class reproduction table; needs the whole size grid, so
     only rendered when the rows cover it (subset grids skip it). *)
  let covered variant =
    List.for_all (fun n -> Hashtbl.mem series (variant, n)) (sizes full)
  in
  if List.for_all covered [ Grid; Aer_snr; Aer_async ] then begin
    let growth variant pick =
      let pts =
        List.map (fun n -> let v = Hashtbl.find series (variant, n) in (n, pick v)) (sizes full)
      in
      Stats.Growth.classify (Array.of_list pts)
    in
    let fst3 (a, _, _) = a and snd3 (_, b, _) = b and thd3 (_, _, c) = c in
    let balanced variant =
      let worst =
        List.fold_left (fun acc n -> max acc (thd3 (Hashtbl.find series (variant, n)))) 0.0
          (sizes full)
      in
      if worst < 4.0 then "Yes" else "No"
    in
    let repro = Table.create
        ~columns:
          [
            ("", Table.Left); ("[KLST11] (paper)", Table.Left); ("grid (ours)", Table.Left);
            ("AER SNR (paper)", Table.Left); ("AER SNR (ours)", Table.Left);
            ("AER async (paper)", Table.Left); ("AER async (ours)", Table.Left);
          ]
    in
    let gs v p = Stats.Growth.to_string (growth v p) in
    Table.add_row repro
      [
        "Time"; "O(log^2 n)"; gs Grid (fun v -> fst3 v +. 1.0);
        "O(1)"; gs Aer_snr (fun v -> fst3 v +. 1.0);
        "O(log n/log log n)"; gs Aer_async (fun v -> fst3 v +. 1.0);
      ];
    Table.add_row repro
      [
        "Bits"; "O~(sqrt n)"; gs Grid snd3;
        "O(log^2 n)"; gs Aer_snr snd3;
        "O(log^2 n)"; gs Aer_async snd3;
      ];
    Table.add_row repro
      [
        "Load-balanced"; "Yes"; balanced Grid;
        "No"; balanced Aer_snr;
        "No"; balanced Aer_async;
      ];
    Printf.fprintf out "\n### Reproduction vs paper (growth classes fitted over the size grid)\n\n";
    output_string out (Table.to_markdown repro);
    let bits_exp v = Stats.Growth.power_exponent
        (Array.of_list (List.map (fun n -> (n, snd3 (Hashtbl.find series (v, n)))) (sizes full)))
    in
    Printf.fprintf out
      "\nFitted bits/node power exponents: grid %.2f (paper: 0.5 up to polylog), AER SNR %.2f, \
       AER async %.2f (paper: polylog, i.e. exponent -> 0 as n grows; at these n a log^k fit \
       retains a positive apparent exponent — see EXPERIMENTS.md).\n\n"
      (bits_exp Grid) (bits_exp Aer_snr) (bits_exp Aer_async);
    (* Model check, calibrated at the smallest size. *)
    let model = Table.create
        ~columns:
          [ ("n", Table.Right); ("measured bits/node", Table.Right);
            ("model C*dh^2*dj*msgbits", Table.Right); ("ratio", Table.Right) ]
    in
    let prediction n =
      let found =
        List.fold_left
          (fun acc r ->
            match r with
            | Main_row { variant = Aer_snr; n = n'; model_pred = Some p; _ } when n' = n ->
              Some p
            | _ -> acc)
          None rows
      in
      match found with Some p -> p | None -> model_prediction ~n
    in
    let n0 = List.hd (sizes full) in
    let measured n = snd3 (Hashtbl.find series (Aer_snr, n)) in
    let calib = measured n0 /. prediction n0 in
    List.iter
      (fun n ->
        let pred = calib *. prediction n in
        Table.add_row model
          [ Table.cell_int n; Table.cell_float ~decimals:0 (measured n);
            Table.cell_float ~decimals:0 pred; Table.cell_float (measured n /. pred) ])
      (sizes full);
    Printf.fprintf out
      "### AER bits/node vs the d_h^2*d_j analytical model (calibrated at n=%d)\n\n" n0;
    output_string out (Table.to_markdown model)
  end;
  (* Load balance under attack. *)
  let lb = Table.create
      ~columns:
        [ ("variant", Table.Left); ("n", Table.Right); ("mean |Lx|", Table.Right);
          ("max |Lx|", Table.Right); ("max-node bits", Table.Right); ("agreed", Table.Right) ]
  in
  let lb_seen = ref false in
  List.iter
    (function
      | Main_row _ -> ()
      | Lb_aer_row r ->
        lb_seen := true;
        Table.add_row lb
          [ r.label; Table.cell_int r.n; Table.cell_float r.mean_lx; Table.cell_int r.max_lx;
            Table.cell_float ~decimals:0 r.mean_max_sent;
            Printf.sprintf "%.3f" r.mean_agreed ]
      | Lb_ks09_row r ->
        lb_seen := true;
        Table.add_row lb
          [ r.label; Table.cell_int r.n; "-"; "-";
            Printf.sprintf "%d recv" r.max_recv; Printf.sprintf "%.3f" r.mean_agreed ]
      | Lb_relay_row r ->
        lb_seen := true;
        Table.add_row lb
          [ "committee-relay (Sec. 5 ext.)"; Table.cell_int r.n; "-"; "-";
            Table.cell_float ~decimals:0 r.mean_max_sent;
            Printf.sprintf "%.3f" r.mean_agreed ])
    rows;
  if !lb_seen then begin
    Printf.fprintf out
      "\n### Load balance under Input-Quorum capture (byz=0.25, quorums forced small, d=14)\n\n\
       The paper (Section 1): the adversary \"can seize control of several Input Quorums, \
       associated to a few nodes, and force these nodes to verify an almost-linear number of \
       strings: as such, AER is not load-balanced.\" The victims' candidate lists |Lx| below \
       grow with n while the mean stays constant:\n\n";
    output_string out (Table.to_markdown lb);
    Printf.fprintf out "\n"
  end
