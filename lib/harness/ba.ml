open Fba_stdx
open Fba_core
module Metrics = Fba_sim.Metrics
module Sync = Fba_sim.Sync_engine
module Aeba = Fba_aeba.Aeba
module Grid = Fba_baselines.Grid_aetoe
module RBA = Fba_baselines.Randomized_ba
module Aeba_engine = Sync.Make (Aeba)
module Aer_engine = Sync.Make (Aer)
module Grid_engine = Sync.Make (Grid)
module RBA_engine = Sync.Make (RBA)

type result = {
  metrics : Metrics.t;
  aeba_metrics : Metrics.t;
  phase2_metrics : Metrics.t option;
  outputs : string option array;
  gstring : string option;
  agreed : int;
  correct : int;
  ae_fraction : float;
  all_decided : bool;
}

let sample_corruption ~n ~seed ~byzantine_fraction =
  let rng = Prng.create (Hash64.finish (Hash64.add_string (Hash64.init seed) "corruption")) in
  let t = int_of_float (byzantine_fraction *. float_of_int n) in
  Bitset.of_array n (Prng.sample_without_replacement rng ~n ~k:t)

type phase1 = {
  p1_corrupted : Bitset.t;
  p1_outputs : string option array;
  p1_reference : string option;  (* plurality among correct outputs *)
  p1_metrics : Metrics.t;
  p1_ae_fraction : float;
}

(* The almost-everywhere phase alone, rushing and with silent corrupted
   nodes. *)
let run_phase1 ~n ~seed ~byzantine_fraction () =
  let corrupted = sample_corruption ~n ~seed ~byzantine_fraction in
  let acfg = Aeba.make_config ~n ~seed ~byzantine_fraction () in
  let res =
    Aeba_engine.run ~config:acfg ~n ~seed
      ~adversary:(Sync.null_adversary ~corrupted)
      ~mode:`Rushing
      ~max_rounds:(Aeba.total_rounds acfg + 2) ()
  in
  let mask = Array.init n (fun i -> not (Bitset.mem corrupted i)) in
  let reference = Plurality.of_outputs res.Sync.outputs ~counted:(Array.get mask) in
  let ae_count =
    match reference with
    | None -> 0
    | Some r ->
      let c = ref 0 in
      Array.iteri (fun i o -> if mask.(i) && o = Some r then incr c) res.Sync.outputs;
      !c
  in
  {
    p1_corrupted = corrupted;
    p1_outputs = res.Sync.outputs;
    p1_reference = reference;
    p1_metrics = res.Sync.metrics;
    p1_ae_fraction = float_of_int ae_count /. float_of_int n;
  }

(* The one hand-off from phase 1 to a phase 2. The gate is AER's
   precondition: phase 1's plurality string must be known to more than
   half of all nodes. Past it, every node starts [phase2] from its
   phase-1 output, and each undecided straggler from a unique junk
   candidate, as that precondition allows. *)
let compose ~n ~seed ~byzantine_fraction phase2 =
  let p1 = run_phase1 ~n ~seed ~byzantine_fraction () in
  let corrupted = p1.p1_corrupted in
  let correct = n - Bitset.cardinal corrupted in
  let ae_fraction = p1.p1_ae_fraction in
  match p1.p1_reference with
  | Some gstring when ae_fraction > 0.5 ->
    let initial =
      Array.init n (fun i ->
          match p1.p1_outputs.(i) with Some v -> v | None -> Printf.sprintf "straggler-%d" i)
    in
    let (r2 : _ Sync.result) = phase2 ~gstring ~corrupted ~initial ~ae_fraction in
    let agreed = ref 0 in
    Array.iteri
      (fun i o -> if (not (Bitset.mem corrupted i)) && o = Some gstring then incr agreed)
      r2.Sync.outputs;
    {
      metrics = Metrics.merge_phases p1.p1_metrics r2.Sync.metrics;
      aeba_metrics = p1.p1_metrics;
      phase2_metrics = Some r2.Sync.metrics;
      outputs = r2.Sync.outputs;
      gstring = Some gstring;
      agreed = !agreed;
      correct;
      ae_fraction;
      all_decided = r2.Sync.all_decided;
    }
  | reference ->
    {
      metrics = p1.p1_metrics;
      aeba_metrics = p1.p1_metrics;
      phase2_metrics = None;
      outputs = Array.make n None;
      gstring = reference;
      agreed = 0;
      correct;
      ae_fraction;
      all_decided = false;
    }

let run_sync ~n ~seed ~byzantine_fraction () =
  compose ~n ~seed ~byzantine_fraction (fun ~gstring ~corrupted ~initial ~ae_fraction ->
      let params =
        Params.make_for ~gstring_bits:(8 * String.length gstring) ~n
          ~seed:(Hash64.finish (Hash64.add_string (Hash64.init seed) "aer"))
          ~byzantine_fraction:(max 0.01 byzantine_fraction)
          ~knowledgeable_fraction:ae_fraction ()
      in
      let scenario = Scenario.of_assignment ~params ~gstring ~corrupted ~initial () in
      Aer_engine.run ~quiet_limit:(Params.quiet_limit params)
        ~config:(Aer.config_of_scenario scenario) ~n ~seed:params.Params.seed
        ~adversary:(Sync.null_adversary ~corrupted)
        ~mode:`Rushing
        ~max_rounds:(100 + params.Params.n) ())

let run_grid ~n ~seed ~byzantine_fraction () =
  compose ~n ~seed ~byzantine_fraction (fun ~gstring ~corrupted ~initial ~ae_fraction:_ ->
      let config =
        Grid.make_config ~n ~initial:(Array.get initial) ~str_bits:(8 * String.length gstring)
      in
      Grid_engine.run ~config ~n ~seed
        ~adversary:(Sync.null_adversary ~corrupted)
        ~mode:`Rushing ~max_rounds:(Grid.total_rounds + 2) ())

type binary = {
  metrics : Metrics.t;
  decided_bit : bool option;
  agreed : int;
  correct : int;
  validity_respected : bool;
}

let run_binary ~inputs ~n ~seed ~byzantine_fraction () =
  let (ba : result) = run_sync ~n ~seed ~byzantine_fraction () in
  match ba.gstring with
  | None ->
    {
      metrics = ba.metrics;
      decided_bit = None;
      agreed = 0;
      correct = ba.correct;
      validity_respected = true;
    }
  | Some gstring ->
    (* The binary phase: common-coin agreement, the coin stream seeded
       by gstring's entropy. *)
    let coin_seed = Hash64.hash_string ~seed:0x636f696eL gstring in
    let corrupted = Metrics.corrupted ba.metrics in
    let t_assumed = max 1 (min (max 1 (Bitset.cardinal corrupted)) (((n - 1) / 5) - 1)) in
    let cfg = RBA.make_config ~n ~t_assumed ~coin:(`Common coin_seed) ~inputs () in
    let res =
      RBA_engine.run ~config:cfg ~n ~seed:(Int64.add seed 3L)
        ~adversary:(RBA.split_vote_adversary cfg ~corrupted)
        ~mode:`Rushing ~max_rounds:(RBA.max_engine_rounds cfg) ()
    in
    (* The common decision: plurality among correct nodes. *)
    let zero = ref 0 and one = ref 0 in
    Array.iteri
      (fun i o ->
        if not (Bitset.mem corrupted i) then
          match o with Some "1" -> incr one | Some "0" -> incr zero | _ -> ())
      res.Sync.outputs;
    let decided_bit = if !one = 0 && !zero = 0 then None else Some (!one >= !zero) in
    (* Validity: some correct node had the decided bit as its input. *)
    let rec witness b i =
      i < n && (((not (Bitset.mem corrupted i)) && inputs i = b) || witness b (i + 1))
    in
    {
      metrics = Metrics.merge_phases ba.metrics res.Sync.metrics;
      decided_bit;
      agreed = max !one !zero;
      correct = ba.correct;
      validity_respected = (match decided_bit with None -> true | Some b -> witness b 0);
    }
