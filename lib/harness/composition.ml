open Fba_stdx
open Fba_core
module Grid = Fba_baselines.Grid_aetoe
module Grid_sync = Fba_sim.Sync_engine.Make (Grid)

type result = {
  rounds : int;
  bits_per_node : float;
  phase2_bits_per_node : float;
  max_sent_bits : int;
  load_imbalance : float;
  agreed : int;
  correct : int;
  ae_fraction : float;
}

let of_ba_result (r : Ba.result) =
  {
    rounds = Fba_sim.Metrics.rounds r.Ba.metrics;
    bits_per_node = Fba_sim.Metrics.amortized_bits r.Ba.metrics;
    phase2_bits_per_node = Fba_sim.Metrics.amortized_bits r.Ba.aer_metrics;
    max_sent_bits = Fba_sim.Metrics.max_sent_bits_correct r.Ba.metrics;
    load_imbalance = Fba_sim.Metrics.load_imbalance r.Ba.metrics;
    agreed = r.Ba.agreed;
    correct = r.Ba.correct;
    ae_fraction = r.Ba.ae_fraction;
  }

(* Run phase 1, hand its assignment to the grid phase 2, merge the
   accounting. *)
let run_aeba_grid ~n ~seed ~byzantine_fraction =
  let p1 = Ba.run_phase1 ~n ~seed ~byzantine_fraction () in
  let corrupted = p1.Ba.p1_corrupted in
  let correct = n - Bitset.cardinal corrupted in
  match p1.Ba.p1_reference with
  | None ->
    {
      rounds = Fba_sim.Metrics.rounds p1.Ba.p1_metrics;
      bits_per_node = Fba_sim.Metrics.amortized_bits p1.Ba.p1_metrics;
      phase2_bits_per_node = 0.0;
      max_sent_bits = Fba_sim.Metrics.max_sent_bits_correct p1.Ba.p1_metrics;
      load_imbalance = Fba_sim.Metrics.load_imbalance p1.Ba.p1_metrics;
      agreed = 0;
      correct;
      ae_fraction = p1.Ba.p1_ae_fraction;
    }
  | Some reference ->
    let initial =
      Array.init n (fun i ->
          match p1.Ba.p1_outputs.(i) with
          | Some v -> v
          | None -> Printf.sprintf "straggler-%d" i)
    in
    let cfg =
      Grid.make_config ~n ~initial:(fun i -> initial.(i)) ~str_bits:(8 * String.length reference)
    in
    let res =
      Grid_sync.run ~config:cfg ~n ~seed
        ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted)
        ~mode:`Rushing ~max_rounds:(Grid.total_rounds + 2) ()
    in
    let metrics2 = res.Fba_sim.Sync_engine.metrics in
    let merged = Fba_sim.Metrics.merge_phases p1.Ba.p1_metrics metrics2 in
    let agreed = ref 0 in
    Array.iteri
      (fun i o -> if (not (Bitset.mem corrupted i)) && o = Some reference then incr agreed)
      res.Fba_sim.Sync_engine.outputs;
    {
      rounds = Fba_sim.Metrics.rounds merged;
      bits_per_node = Fba_sim.Metrics.amortized_bits merged;
      phase2_bits_per_node = Fba_sim.Metrics.amortized_bits metrics2;
      max_sent_bits = Fba_sim.Metrics.max_sent_bits_correct merged;
      load_imbalance = Fba_sim.Metrics.load_imbalance merged;
      agreed = !agreed;
      correct;
      ae_fraction = p1.Ba.p1_ae_fraction;
    }
