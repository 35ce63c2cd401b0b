open Fba_stdx
open Fba_core
module Aer_sync = Fba_sim.Sync_engine.Make (Aer)
module Engine_core = Fba_sim.Engine_core
module Metrics = Fba_sim.Metrics

(* Per-instance seeds are hash-derived from the stream seed, so the
   schedule of seeds depends only on (stream_seed, k) — never on the
   pipeline width, the domain count, or completion order. *)
let instance_seed stream_seed k =
  Hash64.finish (Hash64.add_int (Hash64.add_string (Hash64.init stream_seed) "instance") k)

(* Same folding as the determinism goldens: every node's traffic
   counters plus its decision round, then the round count. *)
let fingerprint m =
  let word j =
    let i = j / 5 in
    match j mod 5 with
    | 0 -> Metrics.sent_messages_of m i
    | 1 -> Metrics.sent_bits_of m i
    | 2 -> Metrics.recv_messages_of m i
    | 3 -> Metrics.recv_bits_of m i
    | _ -> (match Metrics.decision_round m i with None -> -1 | Some r -> r)
  in
  let h = Hash64.add_ints (Hash64.init 0x600DL) (5 * Metrics.n m) word in
  Hash64.finish (Hash64.add_int h (Metrics.rounds m))

type stream = {
  setup : Runner.aer_setup;
  n : int;
  stream_seed : int64;
  instances : int;
  width : int;
  jobs : int;
}

let default_stream =
  {
    setup = Runner.default_setup;
    n = 128;
    stream_seed = 42L;
    instances = 256;
    width = 4;
    jobs = 1;
  }

type instance_result = {
  index : int;
  seed : int64;
  fingerprint : int64;
  rounds_used : int;
  decided : int;
  agreed : bool;
  latency_ns : int;
}

type summary = {
  results : instance_result array;
  n : int;
  instances : int;
  elapsed_ns : int;
  instances_per_sec : float;
  p50_instance_latency_ns : int;
  p99_instance_latency_ns : int;
}

(* An instance in flight on a lane. *)
type open_instance = {
  oi_index : int;
  oi_seed : int64;
  oi_scenario : Scenario.t;
  oi_running : Aer_sync.running;
  oi_t0 : int;
}

(* Open instance [k] exactly as a one-shot [Runner.aer_sync] run with
   the default config does (fresh scenario, fresh config, rushing,
   reliable network) on [lane], the mailbox that the lane's instances
   deliver through one at a time. The mailbox is the one storage worth
   reusing: its segment arena is the bulk of a run's allocation, and
   [Sync_engine.start] resets it in place. *)
let open_instance t lane ~adversary k =
  let t0 = Monotonic.now_ns () in
  let seed = instance_seed t.stream_seed k in
  let sc = Runner.scenario_of_setup t.setup ~n:t.n ~seed in
  let cfg = Aer.config_of_scenario sc in
  let running =
    Aer_sync.start ~quiet_limit:(Params.quiet_limit sc.Scenario.params) ~mailbox:lane
      ~config:cfg ~n:t.n ~seed:sc.Scenario.params.Params.seed ~adversary:(adversary sc)
      ~mode:Runner.default_config.Runner.mode
      ~max_rounds:Runner.default_config.Runner.max_rounds ()
  in
  { oi_index = k; oi_seed = seed; oi_scenario = sc; oi_running = running; oi_t0 = t0 }

let close_instance oi =
  let res = Aer_sync.finish oi.oi_running in
  let m = res.Fba_sim.Sync_engine.metrics in
  let gstring = oi.oi_scenario.Scenario.gstring in
  let decided = ref 0 in
  let agreed = ref true in
  Array.iter
    (function
      | Some s ->
        incr decided;
        if not (String.equal s gstring) then agreed := false
      | None -> ())
    res.Fba_sim.Sync_engine.outputs;
  {
    index = oi.oi_index;
    seed = oi.oi_seed;
    fingerprint = fingerprint m;
    rounds_used = res.Fba_sim.Sync_engine.rounds_used;
    decided = !decided;
    agreed = !agreed;
    latency_ns = max 0 (Monotonic.now_ns () - oi.oi_t0);
  }

(* Drive one contiguous block of instances through [width] lanes with
   a round-robin scheduler: every pass steps each open instance one
   round; a finished instance is closed and its lane immediately
   reopened on the block's next index. Instances never interact —
   each owns its lane's storage exclusively while open — so the
   results are identical for every width; only the latency
   distribution changes. *)
let run_block t ~adversary ~lo ~hi =
  let count = hi - lo in
  let results = Array.make count None in
  if count > 0 then begin
    let width = min t.width count in
    let lanes = Array.init width (fun _ -> Engine_core.Mailbox.create ~n:t.n ()) in
    let open_ : open_instance option array = Array.make width None in
    let next = ref lo in
    let remaining = ref count in
    let rec pump s =
      match open_.(s) with
      | None ->
        if !next < hi then begin
          open_.(s) <- Some (open_instance t lanes.(s) ~adversary !next);
          incr next;
          pump s
        end
      | Some oi ->
        if not (Aer_sync.step oi.oi_running) then begin
          results.(oi.oi_index - lo) <- Some (close_instance oi);
          decr remaining;
          open_.(s) <- None;
          pump s
        end
    in
    while !remaining > 0 do
      for s = 0 to width - 1 do
        pump s
      done
    done
  end;
  Array.map (function Some r -> r | None -> assert false) results

let run ?(stream = default_stream) ~adversary () =
  let t = stream in
  if t.instances < 0 then invalid_arg "Service.run: instances < 0";
  if t.width < 1 then invalid_arg "Service.run: width < 1";
  let jobs = Pool.resolve_jobs t.jobs in
  let t_start = Monotonic.now_ns () in
  (* Contiguous blocks, one per domain: lane storage stays
     domain-private, and instance k's block depends only on
     (instances, jobs) — never on scheduling. *)
  let nblocks = max 1 (min jobs (max 1 t.instances)) in
  let bounds b = (b * t.instances / nblocks, (b + 1) * t.instances / nblocks) in
  let per_block =
    Pool.run ~jobs
      (fun b ->
        let lo, hi = bounds b in
        run_block t ~adversary ~lo ~hi)
      nblocks
  in
  let results = Array.concat (Array.to_list per_block) in
  let elapsed_ns = max 1 (Monotonic.now_ns () - t_start) in
  (* Latencies are µs-bucketed: Histogram keys by value, and raw
     nanosecond keys would give one bucket per sample. *)
  let hist = Histogram.create () in
  Array.iter (fun r -> Histogram.add hist (r.latency_ns / 1000)) results;
  let pct p =
    match Histogram.percentile_opt hist p with None -> 0 | Some us -> us * 1000
  in
  {
    results;
    n = t.n;
    instances = t.instances;
    elapsed_ns;
    instances_per_sec = float_of_int t.instances /. (float_of_int elapsed_ns /. 1e9);
    p50_instance_latency_ns = pct 50.0;
    p99_instance_latency_ns = pct 99.0;
  }

(* The deterministic face of a summary: everything except wall-clock.
   `fba service` prints this to stdout (timings go to stderr), so
   --jobs 2 and --jobs 1 runs byte-diff clean. *)
let pp_trace out (s : summary) =
  Printf.fprintf out "service n=%d instances=%d\n" s.n s.instances;
  Array.iter
    (fun r ->
      Printf.fprintf out "instance %d seed=%Ld fp=0x%016Lx rounds=%d decided=%d agreed=%b\n"
        r.index r.seed r.fingerprint r.rounds_used r.decided r.agreed)
    s.results
