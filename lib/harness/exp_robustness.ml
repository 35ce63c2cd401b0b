(* Off-model robustness: how far does AER's O~(1)-bits guarantee
   survive when the paper's reliable-network assumption (Section 2.1)
   is weakened? The sweep runs AER against the naive and grid baselines
   under the {!Fba_sim.Net} conditions — i.i.d. per-delivery loss and
   transient bisections — and reports decide probability,
   rounds-to-decide and bits/node degradation curves. The Byzantine
   coalition stays silent so the network-condition axis is isolated
   from the adversary axis (the other experiments cover the latter). *)

module Net = Fba_sim.Net
module Attacks = Fba_adversary.Aer_attacks

let name = "robustness"

type proto = Aer | Naive | Grid

type cond = Drop_rate of float | Partition_len of int

type cell = { proto : proto; cond : cond; n : int; seeds : int64 list }

type row = {
  r_proto : proto;
  r_cond : cond;
  r_n : int;
  r_seeds : int;
  agreed : float;  (** mean fraction of correct nodes deciding gstring *)
  all_agreed : float;  (** fraction of runs where every correct node did *)
  rounds : float;  (** mean engine rounds *)
  bits : float;  (** mean bits/node (correct senders) *)
}

let drop_rates = [ 0.0; 0.02; 0.05; 0.10; 0.20 ]

let partition_lens full = if full then [ 0; 1; 2; 4; 8 ] else [ 0; 1; 2; 4 ]

let protos = [ Aer; Naive; Grid ]

let grid ~full =
  let conds =
    List.map (fun r -> Drop_rate r) drop_rates
    @ List.map (fun k -> Partition_len k) (partition_lens full)
  in
  let n = if full then 256 else 96 and seeds = Runner.seeds (if full then 5 else 3) in
  List.concat_map
    (fun cond -> List.map (fun proto -> { proto; cond; n; seeds }) protos)
    conds

(* The bisection starts at round 1: round-0 pushes are already in
   flight, the cut lands on the poll/answer exchange — the phase whose
   chains Lemma 6 bounds. *)
let net_of_cond = function
  | Drop_rate 0.0 -> Net.Reliable
  | Drop_rate rate -> Net.Drop { rate }
  | Partition_len 0 -> Net.Reliable
  | Partition_len rounds -> Net.Partition { from_round = 1; rounds }

let run_cell { proto; cond; n; seeds } =
  let config = { Runner.default_config with Runner.net = net_of_cond cond } in
  let observations =
    List.map
      (fun seed ->
        let sc = Runner.scenario_of_setup Runner.default_setup ~n ~seed in
        match proto with
        | Aer -> (Runner.aer_sync ~config ~adversary:Attacks.silent sc).Runner.obs
        | Naive -> fst (Runner.naive ~config sc)
        | Grid -> Runner.run_grid ~config sc)
      seeds
  in
  let k = float_of_int (List.length observations) in
  let mean f = List.fold_left (fun acc o -> acc +. f o) 0.0 observations /. k in
  {
    r_proto = proto;
    r_cond = cond;
    r_n = n;
    r_seeds = List.length seeds;
    agreed = mean (fun o -> o.Obs.agreed_fraction);
    all_agreed =
      mean (fun o -> if o.Obs.agreed_fraction >= 1.0 then 1.0 else 0.0);
    rounds = mean (fun o -> float_of_int o.Obs.rounds);
    bits = mean (fun o -> o.Obs.bits_per_node);
  }

let proto_label = function Aer -> "AER" | Naive -> "naive" | Grid -> "grid"

let cond_label = function
  | Drop_rate r -> Printf.sprintf "%.2f" r
  | Partition_len k -> string_of_int k

open Fba_stdx

(* One table per condition family, conditions as rows, one column
   group per protocol. *)
let render_family ~out ~title ~cond_col rows conds =
  let row_for cond proto = List.find (fun r -> r.r_cond = cond && r.r_proto = proto) rows in
  Printf.fprintf out "%s\n\n" title;
  let tbl =
    Table.create
      ~columns:
        (( cond_col, Table.Left )
        :: List.concat_map
             (fun p ->
               let l = proto_label p in
               [
                 (l ^ " agreed", Table.Right); (l ^ " runs ok", Table.Right);
                 (l ^ " rounds", Table.Right); (l ^ " bits/node", Table.Right);
               ])
             protos)
  in
  List.iter
    (fun cond ->
      let cells =
        List.concat_map
          (fun p ->
            let r = row_for cond p in
            [
              Table.cell_float ~decimals:3 r.agreed;
              Table.cell_float ~decimals:2 r.all_agreed;
              Table.cell_float ~decimals:1 r.rounds;
              Table.cell_float ~decimals:0 r.bits;
            ])
          protos
      in
      Table.add_row tbl (cond_label cond :: cells))
    conds;
  output_string out (Table.to_markdown tbl);
  Printf.fprintf out "\n"

let render ~full ~out rows =
  Printf.fprintf out "## Off-model robustness (network conditions beyond Section 2.1)\n\n";
  (match rows with
  | [] -> ()
  | r :: _ ->
    Printf.fprintf out
      "Silent Byzantine coalition (byz=%.2f), n=%d, %d seeds per cell. The paper assumes a \
       reliable network; every non-zero condition below is off-model. \"agreed\" is the mean \
       fraction of correct nodes deciding gstring, \"runs ok\" the fraction of runs where all \
       of them did.\n\n"
      Runner.default_setup.Runner.byzantine_fraction r.r_n r.r_seeds);
  render_family ~out
    ~title:"### Decide probability vs i.i.d. delivery loss (drop rate sweep)"
    ~cond_col:"drop rate" rows
    (List.map (fun r -> Drop_rate r) drop_rates);
  render_family ~out
    ~title:
      "### Decide probability vs transient bisection (partition from round 1, length sweep)"
    ~cond_col:"partition rounds" rows
    (List.map (fun k -> Partition_len k) (partition_lens full))
