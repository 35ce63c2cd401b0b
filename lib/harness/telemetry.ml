(* Run-level metrics registry: counters, gauges and histogram-backed
   distributions, merged with the per-phase bit accounting and the
   optional run profile into one versioned JSON document. *)

type dist = {
  count : int;
  p50 : int option;
  p95 : int option;
  p99 : int option;
  max : int option;
}

let dist_of_histogram h =
  {
    count = Fba_stdx.Histogram.total h;
    p50 = Fba_stdx.Histogram.percentile_opt h 50.0;
    p95 = Fba_stdx.Histogram.percentile_opt h 95.0;
    p99 = Fba_stdx.Histogram.percentile_opt h 99.0;
    max = Fba_stdx.Histogram.max_value h;
  }

type t = {
  mutable counters : (string * int) list;  (* insertion order, last set wins *)
  mutable gauges : (string * float) list;
  mutable dists : (string * dist) list;
  mutable phases : Fba_sim.Events.Phase_acc.row list;
  mutable prof : Fba_sim.Prof.t option;
}

let create () = { counters = []; gauges = []; dists = []; phases = []; prof = None }

let set_assoc xs name v =
  if List.mem_assoc name xs then List.map (fun (n, x) -> if n = name then (n, v) else (n, x)) xs
  else xs @ [ (name, v) ]

let counter t name v = t.counters <- set_assoc t.counters name v
let gauge t name v = t.gauges <- set_assoc t.gauges name v
let dist t name h = t.dists <- set_assoc t.dists name (dist_of_histogram h)
let set_phases t rows = t.phases <- rows
let set_prof t p = t.prof <- Some p

let counters t = t.counters
let gauges t = t.gauges
let dists t = t.dists

(* --- The standard reduction: one AER run --- *)

let of_aer_run ?prof (run : Runner.aer_run) =
  let t = create () in
  let obs = run.Runner.obs in
  let m = run.Runner.metrics in
  let n = obs.Obs.n in
  counter t "n" n;
  counter t "rounds" obs.Obs.rounds;
  counter t "wrong_decisions" obs.Obs.wrong_decisions;
  counter t "total_bits_all" obs.Obs.total_bits_all;
  counter t "max_sent_bits" obs.Obs.max_sent_bits;
  counter t "max_recv_bits" obs.Obs.max_recv_bits;
  counter t "push_max_messages" run.Runner.push_max_messages;
  counter t "candidate_sum" run.Runner.candidate_sum;
  counter t "candidate_max" run.Runner.candidate_max;
  counter t "gstring_missing" run.Runner.gstring_missing;
  counter t "peak_mailbox_words" (Fba_sim.Metrics.peak_mailbox_words m);
  gauge t "decided_fraction" obs.Obs.decided_fraction;
  gauge t "agreed_fraction" obs.Obs.agreed_fraction;
  gauge t "bits_per_node" obs.Obs.bits_per_node;
  gauge t "msgs_per_node" obs.Obs.msgs_per_node;
  gauge t "load_imbalance" obs.Obs.load_imbalance;
  let corrupted = Fba_sim.Metrics.corrupted m in
  let decision = Fba_stdx.Histogram.create () in
  let sent_bits = Fba_stdx.Histogram.create () in
  let recv_bits = Fba_stdx.Histogram.create () in
  for i = 0 to n - 1 do
    if not (Fba_stdx.Bitset.mem corrupted i) then begin
      (match Fba_sim.Metrics.decision_round m i with
      | Some r -> Fba_stdx.Histogram.add decision r
      | None -> ());
      Fba_stdx.Histogram.add sent_bits (Fba_sim.Metrics.sent_bits_of m i);
      Fba_stdx.Histogram.add recv_bits (Fba_sim.Metrics.recv_bits_of m i)
    end
  done;
  dist t "decision_round" decision;
  dist t "sent_bits" sent_bits;
  dist t "recv_bits" recv_bits;
  (match prof with Some p when Fba_sim.Prof.started p -> set_prof t p | _ -> ());
  t

(* --- JSON export ---

   Hand-rolled on a Buffer like Events.Jsonl (the repo carries no JSON
   dependency); [Events.Jsonl.escape] keeps every byte ASCII. Key order
   is fixed so the document is golden-testable. *)

let version = 1

let esc s = Fba_sim.Events.Jsonl.escape s

let buf_opt_int b = function
  | None -> Buffer.add_string b "null"
  | Some v -> Buffer.add_string b (string_of_int v)

let buf_float b v =
  (* %.17g round-trips any float; trim the common integral case. *)
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.1f" v)
  else Buffer.add_string b (Printf.sprintf "%.17g" v)

let buf_fields b xs ~value =
  Buffer.add_char b '{';
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      Buffer.add_string b (esc name);
      Buffer.add_string b "\":";
      value b v)
    xs;
  Buffer.add_char b '}'

let buf_dist b (d : dist) =
  Buffer.add_string b (Printf.sprintf "{\"count\":%d,\"p50\":" d.count);
  buf_opt_int b d.p50;
  Buffer.add_string b ",\"p95\":";
  buf_opt_int b d.p95;
  Buffer.add_string b ",\"p99\":";
  buf_opt_int b d.p99;
  Buffer.add_string b ",\"max\":";
  buf_opt_int b d.max;
  Buffer.add_char b '}'

let buf_phase b (r : Fba_sim.Events.Phase_acc.row) =
  Buffer.add_string b
    (Printf.sprintf
       "{\"phase\":\"%s\",\"first_round\":%d,\"last_round\":%d,\"msgs_correct\":%d,\"msgs_byz\":%d,\"bits_correct\":%d,\"bits_byz\":%d,\"max_sent_bits\":%d}"
       (esc r.Fba_sim.Events.Phase_acc.phase)
       r.Fba_sim.Events.Phase_acc.first_round r.Fba_sim.Events.Phase_acc.last_round
       r.Fba_sim.Events.Phase_acc.msgs_correct r.Fba_sim.Events.Phase_acc.msgs_byz
       r.Fba_sim.Events.Phase_acc.bits_correct r.Fba_sim.Events.Phase_acc.bits_byz
       r.Fba_sim.Events.Phase_acc.max_sent_bits)

let buf_prof b p =
  let module P = Fba_sim.Prof in
  Buffer.add_string b
    (Printf.sprintf "{\"rounds\":%d,\"total_wall_ns\":%d,\"total_alloc_words\":%d,\"slots\":["
       (P.rounds p) (P.total_wall_ns p) (P.total_alloc_words p));
  for s = 0 to P.slots p - 1 do
    if s > 0 then Buffer.add_char b ',';
    Buffer.add_string b
      (Printf.sprintf "{\"name\":\"%s\",\"hits\":%d,\"wall_ns\":%d,\"alloc_words\":%d}"
         (esc (P.slot_name p s))
         (P.slot_hits p s) (P.slot_wall p s) (P.slot_alloc p s))
  done;
  Buffer.add_string b "]}"

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "{\"telemetry_version\":%d,\"counters\":" version);
  buf_fields b t.counters ~value:(fun b v -> Buffer.add_string b (string_of_int v));
  Buffer.add_string b ",\"gauges\":";
  buf_fields b t.gauges ~value:buf_float;
  Buffer.add_string b ",\"dists\":";
  buf_fields b t.dists ~value:buf_dist;
  Buffer.add_string b ",\"phases\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      buf_phase b r)
    t.phases;
  Buffer.add_string b "],\"prof\":";
  (match t.prof with None -> Buffer.add_string b "null" | Some p -> buf_prof b p);
  Buffer.add_char b '}';
  Buffer.contents b
