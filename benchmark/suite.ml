(* Workloads, reps, checks and metrics.

   A rep runs one workload's K instances closed-loop (each starts when
   the previous returns) on instance seeds [Service.instance_seed S k],
   k = 0..K−1 — the same seeds in every rep, so every deterministic
   count repeats exactly and wall time is the only thing that varies.
   Before each rep the heap is compacted and the VmHWM peak reset. *)

module Service = Fba_harness.Service
module Runner = Fba_harness.Runner
module Attacks = Fba_adversary.Aer_attacks

type workload = { name : string; kind : Instance.kind; n : int; k : int }

(* Why each workload is there: README.md and BENCHMARK.json. Sizes keep
   a rep near 1 s on a 2-core box (aer-n1024: one instance), so a timed
   run holds enough reps for each instance to meet a quiet phase of the
   machine. The service's 12 fill its 4 lanes three times, and aer-n128
   runs the same 12, so both screen the same stream. *)
let workloads =
  [
    { name = "aer-n128"; kind = Aer_sync; n = 128; k = 12 };
    { name = "aer-n1024"; kind = Aer_sync; n = 1024; k = 1 };
    { name = "service-n128"; kind = Service_stream; n = 128; k = 12 };
    { name = "aer-async-n256"; kind = Aer_async; n = 256; k = 4 };
    { name = "grid-n4096"; kind = Grid_sync; n = 4096; k = 4 };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) workloads

(* --- End-to-end metrics --- *)

type better = Higher | Lower | Exact

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float;
      (** the share of the base value by which the metric may get worse
          before [compare] calls it a regression *)
}

let e2e =
  [
    { name = "inst_per_s"; unit = "1/s"; better = Higher; bound = 0.25 };
    { name = "lat_p50_ms"; unit = "ms"; better = Lower; bound = 0.25 };
    { name = "lat_p90_ms"; unit = "ms"; better = Lower; bound = 0.25 };
    { name = "setup_s"; unit = "s"; better = Lower; bound = 0.25 };
    { name = "alloc_mw_per_inst"; unit = "Mwords"; better = Lower; bound = 0.02 };
    { name = "peak_rss_mb"; unit = "MB"; better = Lower; bound = 0.25 };
    { name = "failed_frac"; unit = "ratio"; better = Lower; bound = 0.0 };
    { name = "bits_per_node"; unit = "bits"; better = Exact; bound = 0.02 };
    { name = "rounds_p50"; unit = "rounds"; better = Exact; bound = 0.02 };
  ]

(* The single-workload result line carries the metrics every workload
   reports; failures travel in its [failed] field (they are 0 on a
   correct tree, and a metric must never read 0). *)
let result_line_metrics =
  List.filter (fun m -> m.name <> "failed_frac" && m.name <> "lat_p90_ms") e2e

(* --- Reps --- *)

type rep = {
  outcomes : Instance.outcome array;  (** in instance order *)
  wall_ns : int;
  alloc_words : float;
  minor : int;
  major : int;
  promoted_words : float;
  rss_kb : int;
  peak_words : int;  (** Batch.Peak: the largest delivery plane of the rep *)
  injected : int;
  roots : Spans.node list;  (** traced reps: one span tree per instance *)
  calib_ms : float;
  scale : float;  (** {!Machine.scale} of the rep: its times × scale are uncontended times *)
  scales : float array;
      (** per instance, the scale of the phase it ran in: on the service,
          whose instances overlap, the rep's *)
}

type state = {
  w : workload;
  stream_seed : int64;  (** the screened stream: instance k runs [instance_seed stream_seed k] *)
  screened : int;  (** candidate streams rejected before it *)
  replay : Instance.outcome array;
      (** the screening pass: one-shot runs of the K instances, whose
          fingerprints every rep must reproduce *)
  replay_scale : float;  (** {!Machine.scale} of the screening *)
  mutable untraced : rep list;  (** newest first *)
  mutable traced_reps : rep list;
  mutable problems : string list;  (** newest first; any entry makes the run incorrect *)
}

let problem st fmt = Printf.ksprintf (fun s -> st.problems <- s :: st.problems) fmt

let seed_of st i = Service.instance_seed st.stream_seed i

(* The service's instances are aer-n128's one-shot executions. *)
let one_shot_kind w = match w.kind with Instance.Service_stream -> Instance.Aer_sync | k -> k

let one_shot w stream i =
  Instance.run (one_shot_kind w) ~traced:false ~n:w.n ~inst:i
    ~seed:(Service.instance_seed stream i)

(* Workloads are chosen so that no instance fails: AER's default quorum
   sizing allows a 5% per-run miss, and under cornering about 2% of
   n=128 draws (6% at n=1024) leave one correct node undecided. The
   stream is the first of [seed], hash(seed, "screen", 1), … whose K
   one-shot instances all decide gstring everywhere. Only that permitted
   miss ("termination") moves screening to the next candidate; any
   other failure — agreement, validity, the cap, an exception — is a
   problem of the run. The pass also warms the workload up. *)
let max_screen = 8

let candidate seed j =
  if j = 0 then seed
  else Fba_stdx.Hash64.(finish (add_int (add_string (init seed) "screen") j))

(* The stream, the candidates rejected before it, its one-shot
   outcomes, and the problems screening found. *)
let screen w ~seed =
  let rec pass stream i acc =
    if i = w.k then Ok (Array.of_list (List.rev acc))
    else
      let o = one_shot w stream i in
      match o.Instance.failure with
      | None -> pass stream (i + 1) (o :: acc)
      | Some why -> Error (i, why)
  in
  let rec go j =
    let stream = candidate seed j in
    match pass stream 0 [] with
    | Ok outs -> (stream, j, outs, [])
    | Error (_, "termination") when j + 1 < max_screen -> go (j + 1)
    | Error (i, why) ->
      let why =
        if why = "termination" then Printf.sprintf "termination on all %d candidate streams" max_screen
        else why
      in
      ( stream,
        j,
        Array.init w.k (one_shot w stream),
        [ Printf.sprintf "%s: screening instance %d: %s" w.name i why ] )
  in
  go 0

(* Service results carry fingerprints, decisions and latency; bits and
   rounds come from the one-shot run of the same seed — equal
   fingerprints mean equal per-node traffic and decision rounds — and
   set-up from [setups], the one-shot set-up of each seed. *)
let service_outcomes st ?(setups = [||]) (s : Service.summary) =
  Array.mapi
    (fun i (r : Service.instance_result) ->
      let one = st.replay.(i) in
      let failure =
        if not r.Service.agreed then Some "validity"
        else if r.Service.fingerprint <> one.Instance.fingerprint then
          Some "differs from the one-shot run"
        else one.Instance.failure
      in
      let latency_ns = r.Service.latency_ns in
      let setup_ns = if i < Array.length setups then setups.(i) else one.Instance.setup_ns in
      { one with Instance.fingerprint = r.Service.fingerprint; failure; latency_ns; setup_ns })
    s.Service.results

(* Instance 0 through the library's own entry point. *)
let check_public st =
  let w = st.w and one = st.replay.(0) in
  let sc () = Runner.scenario_of_setup Instance.setup ~n:w.n ~seed:(seed_of st 0) in
  let same =
    match w.kind with
    | Instance.Aer_sync ->
      let run = Runner.aer_sync ~adversary:(fun sc -> Attacks.cornering sc) (sc ()) in
      Service.fingerprint run.Runner.metrics = one.Instance.fingerprint
    | Aer_async ->
      let run, _ = Runner.aer_async ~adversary:(fun sc -> Attacks.async_cornering sc) (sc ()) in
      Service.fingerprint run.Runner.metrics = one.Instance.fingerprint
    | Grid_sync -> Some (Runner.run_grid (sc ())) = one.Instance.observation
    | Service_stream ->
      let s = Instance.service ~traced:false ~n:w.n ~seed:st.stream_seed ~instances:1 in
      (service_outcomes st s).(0).Instance.failure = None
  in
  if not same then problem st "instance 0 differs from the public path (Runner / Service.run)"

let init w ~seed =
  let before = Machine.probes () in
  let stream_seed, screened, replay, problems = screen w ~seed in
  let replay_scale = Machine.scale (before @ Machine.probes ()) in
  let st =
    { w; stream_seed; screened; replay; replay_scale; untraced = []; traced_reps = []; problems }
  in
  (try check_public st with e -> problem st "public path raised %s" (Printexc.to_string e));
  st

let allocated (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

let run_rep st ~traced =
  let w = st.w in
  let calib_ms = Machine.calib_ms () in
  let before = Machine.probes () in
  (* The service's set-ups are timed apart, before the rep's own window. *)
  let setups =
    if w.kind = Service_stream then
      Array.init w.k (fun i -> Instance.setup_ns ~n:w.n ~seed:(seed_of st i))
    else [||]
  in
  Gc.compact ();
  Machine.reset_rss_hwm ();
  Fba_sim.Batch.Peak.reset ();
  Timed.injected := 0;
  if traced then Spans.start ();
  let g0 = Gc.quick_stat () in
  let t0 = Clock.now_ns () in
  let outcomes, scales =
    match w.kind with
    | Service_stream -> (
      match Instance.service ~traced ~n:w.n ~seed:st.stream_seed ~instances:w.k with
      | s -> (service_outcomes st ~setups s, [||])
      | exception e ->
        Spans.abort ();
        let failure = Some ("exception " ^ Printexc.to_string e) in
        (Array.map (fun o -> { o with Instance.failure }) st.replay, [||]))
    | _ ->
      (* Probes between the instances scale each by the phase it ran in. *)
      let last = ref (Machine.probes ()) in
      Array.split
        (Array.init w.k (fun i ->
             let o = Instance.run w.kind ~traced ~n:w.n ~inst:i ~seed:(seed_of st i) in
             let next = Machine.probes () in
             let s = Machine.scale (!last @ next) in
             last := next;
             (o, s)))
  in
  let wall_ns = Clock.now_ns () - t0 in
  let g1 = Gc.quick_stat () and rss_kb = Machine.peak_rss_kb () in
  let scale = Machine.scale (before @ Machine.probes ()) in
  let scales = if scales = [||] then Array.make w.k scale else scales in
  (* The runtime settles its major-heap allocation count only at the end
     of a major cycle; a rep starts after one (Gc.compact) and its
     allocation is read after another, so it repeats to within a few
     words per instance. *)
  Gc.full_major ();
  let g2 = Gc.quick_stat () in
  Spans.stop ();
  let differs =
    (if traced then "traced" else "untraced") ^ " execution differs from the screened run"
  in
  let outcomes =
    Array.mapi
      (fun i o ->
        if o.Instance.failure = None && o.Instance.fingerprint <> st.replay.(i).Instance.fingerprint
        then { o with Instance.failure = Some differs }
        else o)
      outcomes
  in
  let rep =
    {
      outcomes;
      wall_ns;
      alloc_words = allocated g2 -. allocated g0;
      minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major = g1.Gc.major_collections - g0.Gc.major_collections;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      rss_kb;
      peak_words = Fba_sim.Batch.Peak.get ();
      injected = !Timed.injected;
      roots = (if traced then Spans.instances () else []);
      calib_ms;
      scale;
      scales;
    }
  in
  (* Checks: every instance correct, every execution the screened one. *)
  Array.iteri
    (fun i o ->
      match o.Instance.failure with
      | Some why -> problem st "%s instance %d: %s" w.name i why
      | None -> ())
    rep.outcomes;
  List.iter
    (fun root ->
      if not (Spans.check_root root) then
        problem st "%s instance %d: a span outlasts its parent" w.name root.Spans.inst)
    rep.roots;
  if traced then st.traced_reps <- rep :: st.traced_reps else st.untraced <- rep :: st.untraced;
  rep

let failures rep =
  Array.fold_left (fun acc o -> if o.Instance.failure = None then acc else acc + 1) 0 rep.outcomes

(* --- Summaries --- *)

type summary = {
  value : float;
  median : float;
  q1 : float;
  q3 : float;
  per_rep : float array;
  samples : int;
}

let ms ns = float_of_int ns /. 1e6

(* Clock readings are reported at the uncontended speed, times their
   scale (README.md, "Clock metrics"); [~raw:true] reads them as the
   clock did. [time] scales a reading of the whole rep, [inst_time] one
   of instance [i]. *)
let time ?(raw = false) rep ns = float_of_int ns *. if raw then 1.0 else rep.scale

let inst_time ?(raw = false) rep i ns = float_of_int ns *. if raw then 1.0 else rep.scales.(i)

let latencies reps =
  let ms r = Array.mapi (fun i o -> inst_time r i o.Instance.latency_ns /. 1e6) r.outcomes in
  Array.concat (List.map ms reps)

(* The value of metric [name] on one rep. A direct workload's throughput
   is K over its instances' latencies: a closed loop runs them back to
   back, and the probes between them are not part of it. *)
let rep_value ?raw w name rep =
  let k = float_of_int w.k in
  let per f = Array.mapi (fun i o -> f (inst_time ?raw rep i) o) rep.outcomes in
  match name with
  | "inst_per_s" when w.kind = Instance.Service_stream -> k /. (time ?raw rep rep.wall_ns /. 1e9)
  | "inst_per_s" ->
    k /. (Array.fold_left ( +. ) 0.0 (per (fun t o -> t o.Instance.latency_ns)) /. 1e9)
  | "lat_p50_ms" -> Quantile.median (per (fun t o -> t o.Instance.latency_ns /. 1e6))
  | "lat_p90_ms" -> Quantile.percentile (per (fun t o -> t o.Instance.latency_ns /. 1e6)) 90.0
  | "setup_s" -> Quantile.median (per (fun t o -> t o.Instance.setup_ns /. 1e9))
  | "alloc_mw_per_inst" -> rep.alloc_words /. k /. 1e6
  | "peak_rss_mb" -> float_of_int rep.rss_kb /. 1024.0
  | "failed_frac" -> float_of_int (failures rep) /. k
  | "bits_per_node" -> Quantile.median (per (fun _ o -> o.Instance.bits_per_node))
  | "rounds_p50" -> Quantile.median (per (fun _ o -> o.Instance.rounds))
  | _ -> invalid_arg ("Suite.rep_value: " ^ name)

(* The tail percentile is reported only where at least ten pooled
   samples lie beyond it. *)
let reported st (m : metric) =
  m.name <> "lat_p90_ms" || List.length st.untraced * st.w.k >= 100

(* The value of a metric over the untraced reps: the median of the
   per-rep values, except the tail percentile, which pools every sample
   of every rep. *)
let summarize st (m : metric) =
  let reps = List.rev st.untraced in
  let per_rep = Array.of_list (List.map (rep_value st.w m.name) reps) in
  let q1, median, q3 = Quantile.quartiles per_rep in
  let value = if m.name = "lat_p90_ms" then Quantile.percentile (latencies reps) 90.0 else median in
  { value; median; q1; q3; per_rep; samples = List.length reps * st.w.k }

(* --- Per-layer metrics, from the traced reps' spans (GC and delivery
   plane counts from the untraced reps, which the tracer cannot
   perturb). A layer a workload does not exercise — or, on the
   service, cannot be reached from outside — reads 0. --- *)

let tags = [ "Push"; "Poll"; "Pull"; "Fw1"; "Fw2"; "Answer" ]

let layer_names =
  [
    "runner.scenario_ms";
    "aer.config_ms";
    "compiled.build_ms";
    "aer.init_ms";
    "sync_engine.start_ms";
    "aer.receive_ms_per_inst";
    "aer.receive_ns_per_delivery";
    "aer.receive_share";
    "aer.on_round_ms_per_inst";
  ]
  @ List.concat_map (fun t -> [ "aer.deliveries." ^ t; "aer.receive_ns." ^ t ]) tags
  @ [
      "sync_engine.self_ms_per_inst";
      "sync_engine.self_ns_per_delivery";
      "async_engine.self_ms_per_inst";
      "async_engine.self_ns_per_delivery";
      "adversary.act_ms_per_inst";
      "adversary.act_calls_per_inst";
      "adversary.injected_per_inst";
      "adversary.async_ms_per_inst";
      "adversary.async_calls_per_inst";
      "grid.receive_ms_per_inst";
      "grid.receive_ns_per_delivery";
      "grid.deliveries_per_inst";
      "batch.peak_mailbox_words";
      "service.ms_per_inst";
      "service.wait_share";
      "service.gap_vs_oneshot_ms";
      "gc.minor_per_inst";
      "gc.major_per_inst";
      "gc.promoted_mw_per_inst";
      "gc.top_heap_mw";
      "trace.overhead_frac";
      "screen.streams_rejected";
      "machine.probe_ms";
      "raw.inst_per_s";
      "raw.lat_p50_ms";
      "raw.setup_s";
    ]

let layer_unit name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_ms" || ends "ms_per_inst" then "ms"
  else if ends "_per_s" then "1/s"
  else if ends "_s" then "s"
  else if ends "_ns_per_delivery" || String.starts_with ~prefix:"aer.receive_ns." name then "ns"
  else if ends "_share" || ends "_frac" then "ratio"
  else if ends "_mw" || ends "_mw_per_inst" then "Mwords"
  else if ends "_words" then "words"
  else "count"

let median_of reps f =
  match reps with [] -> 0.0 | _ -> Quantile.median (Array.of_list (List.map f reps))

let layers st =
  let w = st.w in
  let traced = st.traced_reps and untraced = st.untraced in
  let inst = float_of_int (max 1 (List.length traced * w.k)) in
  let k = float_of_int w.k in
  (* Per span name: calls, and summed and self ns at the uncontended
     speed, each instance's spans by its own scale. *)
  let tot = Hashtbl.create 32 in
  List.iter
    (fun r ->
      List.iter
        (fun (root : Spans.node) ->
          let time = inst_time r root.Spans.inst in
          Hashtbl.iter
            (fun name (c, ns, self) ->
              let c0, ns0, self0 =
                Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tot name)
              in
              Hashtbl.replace tot name (c0 + c, ns0 +. time ns, self0 +. time self))
            (Spans.totals [ root ]))
        r.roots)
    traced;
  let get name = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tot name) in
  let count name = let c, _, _ = get name in c in
  let ns name = let _, ns, _ = get name in ns in
  let self name = let _, _, s = get name in s in
  let per_inst_ms v = v /. 1e6 /. inst in
  let per_call v c = if c = 0 then 0.0 else v /. float_of_int c in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let sum_ns f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l in
  let recv = List.map (fun t -> "aer.receive." ^ t) tags in
  (* Handler time is self time: on the async engine a handler's sends
     call the adversary's delay/observe, which are their own spans. *)
  let recv_c = sum count recv and recv_ns = sum_ns self recv in
  let deliveries = recv_c + count "grid.receive" in
  let async_adv = [ "adversary.delay"; "adversary.observe"; "adversary.inject" ] in
  let e2e_value ?raw ?(reps = untraced) name = median_of reps (rep_value ?raw w name) in
  let untraced_rate = e2e_value "inst_per_s" in
  let service_ms = if w.kind = Service_stream then 1e3 /. untraced_rate else 0.0 in
  let lat_p50 = e2e_value "lat_p50_ms" in
  let oneshot_ms =
    Array.fold_left (fun acc o -> acc +. ms o.Instance.latency_ns) 0.0 st.replay
    *. st.replay_scale /. k
  in
  let value = function
    | "runner.scenario_ms" -> per_inst_ms (ns "runner.scenario")
    | "aer.config_ms" -> per_inst_ms (ns "aer.config")
    | "compiled.build_ms" -> per_inst_ms (ns "compiled.build")
    | "aer.init_ms" -> per_inst_ms (ns "aer.init")
    | "sync_engine.start_ms" -> per_inst_ms (ns "sync_engine.start")
    | "aer.receive_ms_per_inst" -> per_inst_ms recv_ns
    | "aer.receive_ns_per_delivery" -> per_call recv_ns recv_c
    | "aer.receive_share" -> if ns "instance" = 0.0 then 0.0 else recv_ns /. ns "instance"
    | "aer.on_round_ms_per_inst" -> per_inst_ms (ns "aer.on_round")
    | "sync_engine.self_ms_per_inst" -> per_inst_ms (self "sync_engine.step")
    | "sync_engine.self_ns_per_delivery" -> per_call (self "sync_engine.step") deliveries
    | "async_engine.self_ms_per_inst" -> per_inst_ms (self "async_engine.run")
    | "async_engine.self_ns_per_delivery" -> per_call (self "async_engine.run") recv_c
    | "adversary.act_ms_per_inst" -> per_inst_ms (ns "adversary.act")
    | "adversary.act_calls_per_inst" -> float_of_int (count "adversary.act") /. inst
    | "adversary.injected_per_inst" ->
      float_of_int (List.fold_left (fun acc r -> acc + r.injected) 0 traced) /. inst
    | "adversary.async_ms_per_inst" -> per_inst_ms (sum_ns ns async_adv)
    | "adversary.async_calls_per_inst" -> float_of_int (sum count async_adv) /. inst
    | "grid.receive_ms_per_inst" -> per_inst_ms (ns "grid.receive")
    | "grid.receive_ns_per_delivery" -> per_call (ns "grid.receive") (count "grid.receive")
    | "grid.deliveries_per_inst" -> float_of_int (count "grid.receive") /. inst
    | "batch.peak_mailbox_words" -> median_of untraced (fun r -> float_of_int r.peak_words)
    | "service.ms_per_inst" -> service_ms
    | "service.wait_share" ->
      if w.kind = Service_stream && lat_p50 > 0.0 then 1.0 -. (service_ms /. lat_p50) else 0.0
    | "service.gap_vs_oneshot_ms" ->
      if w.kind = Service_stream then service_ms -. oneshot_ms else 0.0
    | "gc.minor_per_inst" -> median_of untraced (fun r -> float_of_int r.minor) /. k
    | "gc.major_per_inst" -> median_of untraced (fun r -> float_of_int r.major) /. k
    | "gc.promoted_mw_per_inst" -> median_of untraced (fun r -> r.promoted_words) /. k /. 1e6
    | "gc.top_heap_mw" -> float_of_int (Gc.quick_stat ()).Gc.top_heap_words /. 1e6
    | "trace.overhead_frac" ->
      if traced = [] then 0.0 else (untraced_rate /. e2e_value ~reps:traced "inst_per_s") -. 1.0
    | "screen.streams_rejected" -> float_of_int st.screened
    | "machine.probe_ms" -> median_of untraced (fun r -> Machine.probe_ref_ms /. r.scale)
    | "raw.inst_per_s" -> e2e_value ~raw:true "inst_per_s"
    | "raw.lat_p50_ms" -> e2e_value ~raw:true "lat_p50_ms"
    | "raw.setup_s" -> e2e_value ~raw:true "setup_s"
    | name ->
      (match String.split_on_char '.' name with
      | [ "aer"; "deliveries"; t ] -> float_of_int (count ("aer.receive." ^ t)) /. inst
      | [ "aer"; "receive_ns"; t ] ->
        per_call (self ("aer.receive." ^ t)) (count ("aer.receive." ^ t))
      | _ -> invalid_arg ("Suite.layers: " ^ name))
  in
  List.map (fun name -> (name, value name, layer_unit name)) layer_names

(* --- Outputs --- *)

let attempted st = List.length st.untraced * st.w.k + List.length st.traced_reps * st.w.k

let failed st =
  List.fold_left (fun acc r -> acc + failures r) 0 (st.untraced @ st.traced_reps)

let correct st = st.problems = [] && failed st = 0

(* Fold of the screened fingerprints in instance order — every rep
   reproduced them, or the run is incorrect. *)
let exec_digest st =
  Printf.sprintf "0x%016Lx"
    (Fba_stdx.Hash64.finish
       (Array.fold_left
          (fun h o -> Fba_stdx.Hash64.add_int64 h o.Instance.fingerprint)
          (Fba_stdx.Hash64.init 0xD16E57L) st.replay))
