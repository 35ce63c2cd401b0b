(* One AER run as one versioned JSON document: counters, gauges,
   histogram-backed distributions and the optional run profile.

   Hand-rolled on a Buffer like Events.Jsonl (the repo carries no JSON
   dependency); [Events.Jsonl.escape] keeps every byte ASCII. Key order
   is fixed so the document is golden-testable. *)

let version = 2

let esc s = Fba_sim.Events.Jsonl.escape s

(* {"k1":v1,"k2":v2,...} in list order. *)
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

let buf_int b v = Buffer.add_string b (string_of_int v)

let buf_float b v =
  (* %.17g round-trips any float; trim the common integral case. *)
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.1f" v)
  else Buffer.add_string b (Printf.sprintf "%.17g" v)

let buf_dist b h =
  let opt = function None -> "null" | Some v -> string_of_int v in
  let pct p = opt (Fba_stdx.Histogram.percentile_opt h p) in
  Buffer.add_string b
    (Printf.sprintf "{\"count\":%d,\"p50\":%s,\"p95\":%s,\"p99\":%s,\"max\":%s}"
       (Fba_stdx.Histogram.total h) (pct 50.0) (pct 95.0) (pct 99.0)
       (opt (Fba_stdx.Histogram.max_value h)))

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

let to_json ?prof (run : Runner.aer_run) =
  let obs = run.Runner.obs in
  let m = run.Runner.metrics in
  let n = obs.Obs.n in
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
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "{\"telemetry_version\":%d,\"counters\":" version);
  buf_fields b ~value:buf_int
    [
      ("n", n);
      ("rounds", obs.Obs.rounds);
      ("wrong_decisions", obs.Obs.wrong_decisions);
      ("total_bits_all", obs.Obs.total_bits_all);
      ("max_sent_bits", obs.Obs.max_sent_bits);
      ("max_recv_bits", obs.Obs.max_recv_bits);
      ("push_max_messages", run.Runner.push_max_messages);
      ("candidate_sum", run.Runner.candidate_sum);
      ("candidate_max", run.Runner.candidate_max);
      ("gstring_missing", run.Runner.gstring_missing);
      ("peak_mailbox_words", Fba_sim.Metrics.peak_mailbox_words m);
    ];
  Buffer.add_string b ",\"gauges\":";
  buf_fields b ~value:buf_float
    [
      ("decided_fraction", obs.Obs.decided_fraction);
      ("agreed_fraction", obs.Obs.agreed_fraction);
      ("bits_per_node", obs.Obs.bits_per_node);
      ("msgs_per_node", obs.Obs.msgs_per_node);
      ("load_imbalance", obs.Obs.load_imbalance);
    ];
  Buffer.add_string b ",\"dists\":";
  buf_fields b ~value:buf_dist
    [ ("decision_round", decision); ("sent_bits", sent_bits); ("recv_bits", recv_bits) ];
  Buffer.add_string b ",\"prof\":";
  (match prof with
  | Some p when Fba_sim.Prof.started p -> buf_prof b p
  | _ -> Buffer.add_string b "null");
  Buffer.add_char b '}';
  Buffer.contents b
