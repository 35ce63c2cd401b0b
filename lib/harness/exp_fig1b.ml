open Fba_stdx
module RBA = Fba_baselines.Randomized_ba
module RBA_sync = Fba_sim.Sync_engine.Make (RBA)
module PK = Fba_baselines.Phase_king_proto
module PK_sync = Fba_sim.Sync_engine.Make (PK)

let sizes full = if full then [ 64; 128; 256; 512 ] else [ 64; 128; 256 ]
let pk_sizes full = if full then [ 16; 32; 64; 128 ] else [ 16; 32; 64 ]
let seed_count full = if full then 3 else 2

let byz = 0.10

let random_inputs ~seed i =
  Int64.logand (Hash64.finish (Hash64.add_int (Hash64.init seed) i)) 1L = 1L

type proto = Ba | Aeba_grid | Common_coin | Ben_or | Bit_reduction | Phase_king

let proto_name = function
  | Ba -> "BA (this paper)"
  | Aeba_grid -> "aeba+grid (KLST11-like)"
  | Common_coin -> "common-coin BA (PR10-like)"
  | Ben_or -> "Ben-Or (BO83)"
  | Bit_reduction -> "BA + bit reduction (ext.)"
  | Phase_king -> "phase-king (deterministic)"

type cell = { proto : proto; n : int; seeds : int64 list }

(* One run's measurements, or a cell's means over its seeds. [phase2]
   isolates the a.e.→e. phase for the compositions (the committee
   phase 1 is identical in both); for the other protocols, the bit
   reduction included, it equals [bits]. *)
type sample = { rounds : float; bits : float; phase2 : float; agreed : float }

type row = { r_proto : proto; r_n : int; mean : sample }

let name = "fig1b"

let grid ~full =
  let seeds = Runner.seeds (seed_count full) in
  List.concat_map
    (fun n ->
      List.map
        (fun proto -> { proto; n; seeds })
        [ Ba; Aeba_grid; Common_coin; Ben_or; Bit_reduction ])
    (sizes full)
  @ List.map (fun n -> { proto = Phase_king; n; seeds }) (pk_sizes full)

let sample ?phase2 ~metrics agreed =
  let bits = Fba_sim.Metrics.amortized_bits metrics in
  {
    rounds = float_of_int (Fba_sim.Metrics.rounds metrics);
    bits;
    phase2 = Option.value phase2 ~default:bits;
    agreed;
  }

let fraction agreed correct = float_of_int agreed /. float_of_int (max 1 correct)

(* A composition's phase 2 counts 0 bits when the hand-off skipped it. *)
let of_ba (r : Ba.result) =
  sample ~metrics:r.Ba.metrics
    ~phase2:(Option.fold ~none:0.0 ~some:Fba_sim.Metrics.amortized_bits r.Ba.phase2_metrics)
    (fraction r.Ba.agreed r.Ba.correct)

(* A single-phase protocol: agreement on the plurality of the correct
   outputs. *)
let of_run (res : _ Fba_sim.Sync_engine.result) =
  let obs =
    Obs.of_metrics ~metrics:res.Fba_sim.Sync_engine.metrics
      ~outputs:res.Fba_sim.Sync_engine.outputs ~reference:None ()
  in
  sample ~metrics:res.Fba_sim.Sync_engine.metrics obs.Obs.agreed_fraction

let run_rba ~coin ~n seed =
  let corrupted = Ba.sample_corruption ~n ~seed ~byzantine_fraction:byz in
  let t_assumed = max 1 ((n / 6) - 1) in
  (* Cap the logical rounds: a private-coin run that fails to converge
     within 24 rounds is reported as such (that failure is Ben-Or's
     scaling story), and an uncapped run at large n costs tens of
     millions of messages. *)
  let cfg =
    RBA.make_config ~max_logical_rounds:24 ~n ~t_assumed ~coin ~inputs:(random_inputs ~seed) ()
  in
  of_run
    (RBA_sync.run ~config:cfg ~n ~seed ~adversary:(RBA.split_vote_adversary cfg ~corrupted)
       ~mode:`Rushing ~max_rounds:(RBA.max_engine_rounds cfg) ())

let run_pk ~n seed =
  let corrupted = Ba.sample_corruption ~n ~seed ~byzantine_fraction:byz in
  (* String agreement with (1/2+eps) shared inputs, like the other rows. *)
  let shared = Printf.sprintf "pk-value-%Ld" seed in
  let inputs i = if i mod 4 = 0 then Printf.sprintf "junk-%d" i else shared in
  let cfg = PK.make_config ~n ~initial:inputs ~str_bits:(8 * String.length shared) in
  of_run
    (PK_sync.run ~config:cfg ~n ~seed
       ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted)
       ~mode:`Rushing ~max_rounds:(PK.total_rounds cfg) ())

let run_seed proto ~n seed =
  match proto with
  | Ba -> of_ba (Ba.run_sync ~n ~seed ~byzantine_fraction:byz ())
  | Aeba_grid -> of_ba (Ba.run_grid ~n ~seed ~byzantine_fraction:byz ())
  | Common_coin -> run_rba ~coin:(`Common 1234L) ~n seed
  | Ben_or -> run_rba ~coin:`Local ~n seed
  | Bit_reduction ->
    (* The classical bit-output notion, via the reduction: BA's string
       seeds the common coin of a binary agreement on real inputs
       (50/50 split + vote-splitting adversary). *)
    let r = Ba.run_binary ~inputs:(random_inputs ~seed) ~n ~seed ~byzantine_fraction:byz () in
    sample ~metrics:r.Ba.metrics (fraction r.Ba.agreed r.Ba.correct)
  | Phase_king -> run_pk ~n seed

let run_cell { proto; n; seeds } =
  let samples = List.map (run_seed proto ~n) seeds in
  let mean f = Stats.mean (Array.of_list (List.map f samples)) in
  {
    r_proto = proto;
    r_n = n;
    mean =
      {
        rounds = mean (fun s -> s.rounds);
        bits = mean (fun s -> s.bits);
        phase2 = mean (fun s -> s.phase2);
        agreed = mean (fun s -> s.agreed);
      };
  }

let render ~full ~out rows =
  let tbl = Table.create
      ~columns:
        [ ("protocol", Table.Left); ("n", Table.Right); ("rounds", Table.Right);
          ("bits/node (total)", Table.Right); ("bits/node (a.e.->e. phase)", Table.Right);
          ("agreed", Table.Right) ]
  in
  (* Growth fits run on the a.e.→e. phase bits: the committee phase is
     common to both compositions and dominates at small n. *)
  let series : (string * int, float) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun r ->
      let name = proto_name r.r_proto and m = r.mean in
      Hashtbl.add series (name, r.r_n) m.phase2;
      Table.add_row tbl
        [ name; Table.cell_int r.r_n; Table.cell_float m.rounds;
          Table.cell_float ~decimals:0 m.bits; Table.cell_float ~decimals:0 m.phase2;
          Printf.sprintf "%.3f" m.agreed ])
    rows;
  Printf.fprintf out "## Figure 1(b) — Byzantine Agreement protocols\n\n";
  Printf.fprintf out "### Measurements (byz=%.2f, vote-splitting adversary for the binary \
                      protocols)\n\n" byz;
  output_string out (Table.to_markdown tbl);
  (* Reproduction summary with growth fits where we have a series. *)
  let fit name ns =
    let pts = List.filter_map (fun n ->
        Option.map (fun b -> (n, b)) (Hashtbl.find_opt series (name, n))) ns in
    if List.length pts >= 3 then Stats.Growth.to_string (Stats.Growth.classify (Array.of_list pts))
    else "-"
  in
  let repro = Table.create
      ~columns:
        [ ("protocol", Table.Left); ("model", Table.Left); ("paper time", Table.Left);
          ("paper bits", Table.Left); ("paper n", Table.Left);
          ("measured a.e.->e. bits growth", Table.Left) ]
  in
  Table.add_row repro
    [ "[BOPV06]"; "SR"; "O(log n)"; "n^O(log n)"; "4t+1";
      "not run (toy-only; phase-king shows the deterministic bits wall)" ];
  Table.add_row repro
    [ "[KLST11]"; "SR"; "polylog"; "O~(sqrt n)"; "3t+1"; fit "aeba+grid (KLST11-like)" (sizes full) ];
  Table.add_row repro
    [ "BA (this paper)"; "SR"; "polylog"; "polylog"; "3t+1"; fit "BA (this paper)" (sizes full) ];
  Table.add_row repro
    [ "[PR10]"; "APC"; "O(1)"; "Omega(n^2 log n)"; "4t+1"; fit "common-coin BA (PR10-like)" (sizes full) ];
  Table.add_row repro [ "[KS13]"; "Async"; "O~(n^2.5)"; "?"; "500t"; "not run (orthogonal)" ];
  Table.add_row repro
    [ "phase-king (extra)"; "SR"; "O(t)"; "O(n^2 t |s|)"; "3t+1"; fit "phase-king (deterministic)" (pk_sizes full) ];
  Printf.fprintf out "\n### Reproduction vs paper\n\n";
  output_string out (Table.to_markdown repro);
  Printf.fprintf out "\n"
