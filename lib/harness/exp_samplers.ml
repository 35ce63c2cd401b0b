open Fba_stdx
open Fba_samplers
open Fba_core

let sizes full = if full then [ 256; 512; 1024; 2048 ] else [ 128; 256; 512 ]

let good_set ~n ~rng ~fraction =
  let k = int_of_float (ceil (fraction *. float_of_int n)) in
  Bitset.of_array n (Prng.sample_without_replacement rng ~n ~k)

type cell =
  | Prop of { n : int; tries : int }
  | Seize of { n : int; d : int; frac : float }

type prop_row = {
  n : int;
  d_j : int;
  frac_random : float;
  frac_worst : float;
  overload : float;
  p1 : float;
  boundary_random : float;
  boundary_greedy : float;
}

type seize_row = { frac : float; affine_seized : float; sampler_seized : float }

type row = Prop_row of prop_row | Seize_row of seize_row

let name = "samplers"

(* Section 2.2's motivating dichotomy uses the second size of the grid. *)
let seize_n full = List.nth (sizes full) 1
let seize_d n = 2 * Intx.ceil_log2 n

let grid ~full =
  let tries = if full then 200 else 60 in
  let props = List.map (fun n -> Prop { n; tries }) (sizes full) in
  let n = seize_n full in
  let d = seize_d n in
  let seize = List.map (fun frac -> Seize { n; d; frac }) [ 0.05; 0.10; 0.20; 0.33 ] in
  props @ seize

let run_cell = function
  | Prop { n; tries } ->
    let params =
      Params.make_for ~n ~seed:97L ~byzantine_fraction:0.1 ~knowledgeable_fraction:0.75 ()
    in
    let si = Params.sampler_i params in
    let sj = Params.sampler_j params in
    let rng = Prng.create (Int64.of_int (n + 13)) in
    let good = good_set ~n ~rng ~fraction:0.75 in
    let random_s = Bytes.unsafe_to_string (Prng.bits rng Params.(params.gstring_bits)) in
    let frac_random = Property_check.bad_quorum_fraction si ~good ~s:random_s in
    let _, frac_worst =
      Property_check.worst_string_search si ~good ~rng ~tries
        ~bits:Params.(params.gstring_bits)
    in
    let overload =
      Property_check.overload_factor si
        ~strings:(List.init 4 (fun _ ->
            Bytes.unsafe_to_string (Prng.bits rng Params.(params.gstring_bits))))
    in
    let p1 = Property_check.property1_estimate sj ~good ~samples:20000 ~rng in
    let u = max 2 (n / Intx.ceil_log2 n) in
    let boundary_random =
      Stats.mean
        (Array.init 3 (fun _ ->
             Digraph.boundary_ratio sj (Digraph.random_l sj ~rng ~size:u)))
    in
    let boundary_greedy =
      Digraph.boundary_ratio sj
        (Digraph.greedy_adversarial_l sj ~rng ~size:u ~labels_per_step:24)
    in
    Prop_row
      {
        n;
        d_j = Params.(params.d_j);
        frac_random;
        frac_worst;
        overload;
        p1;
        boundary_random;
        boundary_greedy;
      }
  | Seize { n; d; frac } ->
    let affine = Affine_sampler.create ~n ~d ~stride:(Intx.isqrt n) in
    let hash_sampler = Sampler.create ~seed:11L ~n ~d in
    let budget = int_of_float (frac *. float_of_int n) in
    Seize_row
      {
        frac;
        affine_seized = Affine_sampler.seizable_fraction affine ~budget;
        sampler_seized = Property_check.seizable_fraction hash_sampler ~s:"g" ~budget;
      }

let render ~full ~out rows =
  Printf.fprintf out "## Sampler properties (Lemmas 1–2, Section 4.1)\n\n";
  let prop_rows = List.filter_map (function Prop_row r -> Some r | _ -> None) rows in
  if prop_rows <> [] then begin
    let tbl = Table.create
        ~columns:
          [ ("n", Table.Right); ("d", Table.Right);
            ("bad I-quorums, random s", Table.Right); ("bad I-quorums, worst of 200", Table.Right);
            ("overload factor (L1)", Table.Right); ("P1 bad poll lists", Table.Right);
            ("boundary random L (P2)", Table.Right); ("boundary greedy L (P2)", Table.Right) ]
    in
    List.iter
      (fun (r : prop_row) ->
        Table.add_row tbl
          [ Table.cell_int r.n; Table.cell_int r.d_j;
            Table.cell_float ~decimals:4 r.frac_random; Table.cell_float ~decimals:4 r.frac_worst;
            Table.cell_float r.overload; Table.cell_float ~decimals:4 r.p1;
            Table.cell_float r.boundary_random; Table.cell_float r.boundary_greedy ])
      prop_rows;
    output_string out (Table.to_markdown tbl);
    Printf.fprintf out
      "\nExpectations: bad-quorum fractions stay O(1/n)-ish even under adversarial string \
       search (Lemma 1 / Lemma 5's union bound); the overload factor stays a small constant \
       (Lemma 1); Property 1's fraction is near zero; both boundary ratios stay above the \
       paper's 2/3 bound for |L| = n/log n (Property 2, Figure 3 digraph model) — the greedy \
       adversarial L is the interesting column, since a random L is trivially expanding.\n\n"
  end;
  let seize_rows = List.filter_map (function Seize_row r -> Some r | _ -> None) rows in
  if seize_rows <> [] then begin
    (* Section 2.2's motivating dichotomy: a structured deterministic
       quorum choice is seized with a tiny budget; the sampler resists
       until the budget nears n/2. *)
    let seize = Table.create
        ~columns:
          [ ("budget (fraction of n)", Table.Left); ("affine quorums seized", Table.Right);
            ("sampler quorums seized", Table.Right) ]
    in
    List.iter
      (fun (r : seize_row) ->
        Table.add_row seize
          [ Printf.sprintf "%.2f" r.frac; Table.cell_float r.affine_seized;
            Table.cell_float r.sampler_seized ])
      seize_rows;
    let n = seize_n full in
    Printf.fprintf out
      "### Deterministic quorums vs samplers (Section 2.2's dichotomy, n=%d, d=%d, greedy \
       corruption)\n\nThe arithmetic-progression construction concentrates coverage, so a \
       small corruption budget seizes a large fraction of quorums; the hash sampler spreads \
       coverage uniformly:\n\n" n (seize_d n);
    output_string out (Table.to_markdown seize);
    Printf.fprintf out "\n"
  end
