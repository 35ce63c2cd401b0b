open Fba_stdx
open Fba_core
module Aer_sync = Fba_sim.Sync_engine.Make (Aer)
module Aer_async = Fba_sim.Async_engine.Make (Aer)
module Grid = Fba_baselines.Grid_aetoe
module Grid_sync = Fba_sim.Sync_engine.Make (Grid)
module Naive = Fba_baselines.Naive_aetoe
module Naive_sync = Fba_sim.Sync_engine.Make (Naive)

type aer_setup = {
  byzantine_fraction : float;
  knowledgeable_fraction : float;
  junk : Scenario.junk;
  pull_filter : int option;
  d_override : (int * int * int) option;
  gstring_bits : int option;
  per_run_miss : float;
}

let default_setup =
  {
    byzantine_fraction = 0.10;
    knowledgeable_fraction = 0.85;
    junk = Scenario.Junk_unique;
    pull_filter = None;
    d_override = None;
    gstring_bits = None;
    per_run_miss = 0.05;
  }

let scenario_of_setup setup ~n ~seed =
  let params =
    match setup.d_override with
    | Some (d_i, d_h, d_j) ->
      Params.make ~d_i ~d_h ~d_j ?gstring_bits:setup.gstring_bits
        ?pull_filter:setup.pull_filter ~n ~seed ()
    | None ->
      Params.make_for ~per_run_miss:setup.per_run_miss ?gstring_bits:setup.gstring_bits
        ?pull_filter:setup.pull_filter ~n ~seed
        ~byzantine_fraction:setup.byzantine_fraction
        ~knowledgeable_fraction:setup.knowledgeable_fraction ()
  in
  let rng = Prng.create (Hash64.finish (Hash64.add_string (Hash64.init seed) "workload")) in
  Scenario.make ~junk:setup.junk ~params ~rng
    ~byzantine_fraction:setup.byzantine_fraction
    ~knowledgeable_fraction:setup.knowledgeable_fraction ()

(* --- Run configuration (one record instead of repeated optionals) --- *)

type config = {
  mode : Fba_sim.Sync_engine.mode;
  max_rounds : int;
  max_time : int;
  events : Fba_sim.Events.sink option;
  prof : Fba_sim.Prof.t option;
  flood : bool;
  net : Fba_sim.Net.spec;
  compile : unit;  (* no choice left: AER always runs compiled *)
  stream : unit;  (* no choice left: one delivery plane *)
}

let default_config =
  {
    mode = `Rushing;
    max_rounds = 300;
    max_time = 4000;
    events = None;
    prof = None;
    flood = false;
    net = Fba_sim.Net.Reliable;
    compile = ();
    stream = ();
  }

type aer_run = {
  scenario : Scenario.t;
  obs : Obs.observation;
  metrics : Fba_sim.Metrics.t;
  push_max_messages : int;
  candidate_sum : int;
  candidate_max : int;
  gstring_missing : int;
}

let aer_gauges (sc : Scenario.t) states =
  let push_max = ref 0 and cand_sum = ref 0 and cand_max = ref 0 and missing = ref 0 in
  Array.iteri
    (fun i st ->
      match st with
      | Some st when Scenario.is_correct sc i ->
        push_max := max !push_max (Aer.push_messages_sent st);
        cand_sum := !cand_sum + Aer.candidate_count st;
        cand_max := max !cand_max (Aer.candidate_count st);
        if not (List.mem sc.Scenario.gstring (Aer.candidates st)) then incr missing
      | _ -> ())
    states;
  (!push_max, !cand_sum, !cand_max, !missing)

let aer_sync ?(config = default_config) ~adversary (sc : Scenario.t) =
  let cfg = Aer.config_of_scenario sc in
  let n = Scenario.(sc.params.Params.n) in
  let res =
    Aer_sync.run ~quiet_limit:(Params.quiet_limit sc.Scenario.params) ?events:config.events
      ?prof:config.prof ~net:config.net ~config:cfg ~n ~seed:sc.Scenario.params.Params.seed
      ~adversary:(adversary sc) ~mode:config.mode ~max_rounds:config.max_rounds ()
  in
  let metrics = res.Fba_sim.Sync_engine.metrics in
  let obs =
    Obs.of_metrics ~metrics ~outputs:res.Fba_sim.Sync_engine.outputs
      ~reference:(Some sc.Scenario.gstring) ()
  in
  let push_max_messages, candidate_sum, candidate_max, gstring_missing =
    aer_gauges sc res.Fba_sim.Sync_engine.states
  in
  { scenario = sc; obs; metrics; push_max_messages; candidate_sum; candidate_max;
    gstring_missing }

let aer_async ?(config = default_config) ~adversary (sc : Scenario.t) =
  let cfg = Aer.config_of_scenario sc in
  let n = Scenario.(sc.params.Params.n) in
  let res =
    Aer_async.run ?events:config.events ?prof:config.prof ~net:config.net ~config:cfg ~n
      ~seed:sc.Scenario.params.Params.seed ~adversary:(adversary sc)
      ~max_time:config.max_time ()
  in
  let metrics = res.Fba_sim.Async_engine.metrics in
  let obs =
    Obs.of_metrics ~metrics ~outputs:res.Fba_sim.Async_engine.outputs
      ~reference:(Some sc.Scenario.gstring) ()
  in
  let push_max_messages, candidate_sum, candidate_max, gstring_missing =
    aer_gauges sc res.Fba_sim.Async_engine.states
  in
  ( { scenario = sc; obs; metrics; push_max_messages; candidate_sum; candidate_max;
      gstring_missing },
    res.Fba_sim.Async_engine.normalized_rounds )

let aer_phases ?(config = default_config) ~adversary (sc : Scenario.t) =
  let n = Scenario.(sc.params.Params.n) in
  let tally =
    Fba_sim.Events.Tally.create ~classify:(fun ~kind -> Aer.phase_of_kind kind) ~n ()
  in
  let sink = match config.events with Some k -> k | None -> Fba_sim.Events.create () in
  Fba_sim.Events.attach sink (Fba_sim.Events.Tally.consumer tally);
  (aer_sync ~config:{ config with events = Some sink } ~adversary sc, tally)

let str_bits (sc : Scenario.t) = 8 * String.length sc.Scenario.gstring

let run_grid ?(config = default_config) (sc : Scenario.t) =
  let n = Scenario.(sc.params.Params.n) in
  let cfg =
    Grid.make_config ~n ~initial:(fun i -> sc.Scenario.initial.(i)) ~str_bits:(str_bits sc)
  in
  let res =
    Grid_sync.run ?prof:config.prof ~net:config.net ~config:cfg ~n
      ~seed:sc.Scenario.params.Params.seed
      ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted:sc.Scenario.corrupted)
      ~mode:`Rushing ~max_rounds:(Grid.total_rounds + 2) ()
  in
  Obs.of_metrics ~metrics:res.Fba_sim.Sync_engine.metrics ~outputs:res.Fba_sim.Sync_engine.outputs
    ~reference:(Some sc.Scenario.gstring) ()

(* The two attackable baselines share [config.flood]: [false] (the
   default) runs the honest/silent adversary on both, [true] turns on
   each protocol's worst flooding strategy. One knob, one default —
   the old per-function [?flood] optionals drifted apart. *)

let naive ?(config = default_config) (sc : Scenario.t) =
  let n = Scenario.(sc.params.Params.n) in
  let cfg =
    Naive.make_config ~n ~initial:(fun i -> sc.Scenario.initial.(i)) ~str_bits:(str_bits sc)
  in
  let adversary =
    if config.flood then Naive.flood_adversary cfg ~corrupted:sc.Scenario.corrupted
    else Fba_sim.Sync_engine.null_adversary ~corrupted:sc.Scenario.corrupted
  in
  let res =
    Naive_sync.run ?prof:config.prof ~net:config.net ~config:cfg ~n
      ~seed:sc.Scenario.params.Params.seed
      ~adversary ~mode:`Rushing ~max_rounds:(Naive.total_rounds + 2) ()
  in
  let worst_replies = ref 0 in
  Array.iteri
    (fun i st ->
      match st with
      | Some st when Scenario.is_correct sc i ->
        worst_replies := max !worst_replies (Naive.queries_answered st)
      | _ -> ())
    res.Fba_sim.Sync_engine.states;
  ( Obs.of_metrics ~metrics:res.Fba_sim.Sync_engine.metrics
      ~outputs:res.Fba_sim.Sync_engine.outputs ~reference:(Some sc.Scenario.gstring) (),
    !worst_replies )

module Ks09 = Fba_baselines.Ks09_aetoe
module Ks09_sync = Fba_sim.Sync_engine.Make (Ks09)

let ks09 ?(config = default_config) (sc : Scenario.t) =
  let n = Scenario.(sc.params.Params.n) in
  let cfg =
    Ks09.make_config ~n ~initial:(fun i -> sc.Scenario.initial.(i)) ~str_bits:(str_bits sc)
  in
  let adversary =
    if config.flood then Ks09.flood_adversary cfg ~corrupted:sc.Scenario.corrupted
    else Fba_sim.Sync_engine.null_adversary ~corrupted:sc.Scenario.corrupted
  in
  let res =
    Ks09_sync.run ?prof:config.prof ~net:config.net ~config:cfg ~n
      ~seed:sc.Scenario.params.Params.seed
      ~adversary ~mode:`Rushing ~max_rounds:(Ks09.total_rounds + 2) ()
  in
  Obs.of_metrics ~metrics:res.Fba_sim.Sync_engine.metrics ~outputs:res.Fba_sim.Sync_engine.outputs
    ~reference:(Some sc.Scenario.gstring) ()

module Relay = Fba_extensions.Committee_relay
module Relay_sync = Fba_sim.Sync_engine.Make (Relay)

let run_relay ?(config = default_config) (sc : Scenario.t) =
  let n = Scenario.(sc.params.Params.n) in
  let cfg =
    Relay.make_config ~n ~seed:sc.Scenario.params.Params.seed
      ~initial:(fun i -> sc.Scenario.initial.(i))
      ~str_bits:(str_bits sc) ()
  in
  let res =
    Relay_sync.run ?prof:config.prof ~net:config.net ~config:cfg ~n
      ~seed:sc.Scenario.params.Params.seed
      ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted:sc.Scenario.corrupted)
      ~mode:`Rushing ~max_rounds:(Relay.total_rounds + 2) ()
  in
  Obs.of_metrics ~metrics:res.Fba_sim.Sync_engine.metrics ~outputs:res.Fba_sim.Sync_engine.outputs
    ~reference:(Some sc.Scenario.gstring) ()

let seeds k = List.init k (fun i -> Int64.of_int ((1013 * (i + 1)) + 7))
