open Fba_stdx
module Aeba = Fba_aeba.Aeba
module Aeba_engine = Fba_sim.Sync_engine.Make (Aeba)
module Aer_engine = Fba_sim.Sync_engine.Make (Aer)

type result = {
  metrics : Fba_sim.Metrics.t;
  aeba_metrics : Fba_sim.Metrics.t;
  aer_metrics : Fba_sim.Metrics.t;
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
  p1_reference : string option;
  p1_metrics : Fba_sim.Metrics.t;
  p1_ae_fraction : float;
}

let run_phase1 ~n ~seed ~byzantine_fraction () =
  let corrupted = sample_corruption ~n ~seed ~byzantine_fraction in
  let acfg = Aeba.make_config ~n ~seed ~byzantine_fraction () in
  let res =
    Aeba_engine.run ~config:acfg ~n ~seed
      ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted)
      ~mode:`Rushing
      ~max_rounds:(Aeba.total_rounds acfg + 2) ()
  in
  let mask = Array.init n (fun i -> not (Bitset.mem corrupted i)) in
  let reference =
    Plurality.of_outputs res.Fba_sim.Sync_engine.outputs ~counted:(Array.get mask)
  in
  let ae_count =
    match reference with
    | None -> 0
    | Some r ->
      let c = ref 0 in
      Array.iteri (fun i o -> if mask.(i) && o = Some r then incr c) res.Fba_sim.Sync_engine.outputs;
      !c
  in
  {
    p1_corrupted = corrupted;
    p1_outputs = res.Fba_sim.Sync_engine.outputs;
    p1_reference = reference;
    p1_metrics = res.Fba_sim.Sync_engine.metrics;
    p1_ae_fraction = float_of_int ae_count /. float_of_int n;
  }

let run_sync ~n ~seed ~byzantine_fraction () =
  let phase1 = run_phase1 ~n ~seed ~byzantine_fraction () in
  let corrupted = phase1.p1_corrupted in
  let mask = Array.init n (fun i -> not (Bitset.mem corrupted i)) in
  let reference = phase1.p1_reference in
  let correct = n - Bitset.cardinal corrupted in
  let ae_fraction = phase1.p1_ae_fraction in
  match reference with
  | Some gstring when ae_fraction > 0.5 ->
    (* Phase 2: AER extends gstring from almost-everywhere to
       everywhere. Undecided phase-1 stragglers start from a unique
       junk candidate, as the AER precondition allows. *)
    let params =
      Params.make_for ~gstring_bits:(8 * String.length gstring) ~n
        ~seed:(Hash64.finish (Hash64.add_string (Hash64.init seed) "aer"))
        ~byzantine_fraction:(max 0.01 byzantine_fraction)
        ~knowledgeable_fraction:ae_fraction ()
    in
    let initial =
      Array.init n (fun i ->
          match phase1.p1_outputs.(i) with
          | Some v -> v
          | None -> Printf.sprintf "straggler-%d" i)
    in
    let scenario = Scenario.of_assignment ~params ~gstring ~corrupted ~initial () in
    let cfg = Aer.config_of_scenario scenario in
    let phase2 =
      Aer_engine.run ~quiet_limit:(Params.quiet_limit params) ~config:cfg ~n
        ~seed:params.Params.seed
        ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted)
        ~mode:`Rushing
        ~max_rounds:(100 + Params.(params.n)) ()
    in
    let agreed =
      let c = ref 0 in
      Array.iteri
        (fun i o -> if mask.(i) && o = Some gstring then incr c)
        phase2.Fba_sim.Sync_engine.outputs;
      !c
    in
    {
      metrics =
        Fba_sim.Metrics.merge_phases phase1.p1_metrics
          phase2.Fba_sim.Sync_engine.metrics;
      aeba_metrics = phase1.p1_metrics;
      aer_metrics = phase2.Fba_sim.Sync_engine.metrics;
      outputs = phase2.Fba_sim.Sync_engine.outputs;
      gstring = Some gstring;
      agreed;
      correct;
      ae_fraction;
      all_decided = phase2.Fba_sim.Sync_engine.all_decided;
    }
  | _ ->
    (* Phase 1 failed to establish a majority: report the failure. *)
    {
      metrics = phase1.p1_metrics;
      aeba_metrics = phase1.p1_metrics;
      aer_metrics = phase1.p1_metrics;
      outputs = Array.make n None;
      gstring = reference;
      agreed = 0;
      correct;
      ae_fraction;
      all_decided = false;
    }
