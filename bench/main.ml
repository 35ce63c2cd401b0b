(* Benchmark harness.

   Two jobs, per the reproduction contract:

   1. Regenerate every table/figure of the paper (Figure 1(a), Figure
      1(b)) plus the lemma-level, sampler-property and ablation tables -
      the experiment modules in [fba_harness] print the same rows the
      paper reports, with measured values.
   2. A Bechamel micro-benchmark suite (one [Test.make] per reproduced
      artifact) measuring the wall-clock cost of the protocol runs that
      feed those tables, so performance regressions in the simulator
      itself are visible.

   [perf --json] is the regression gate: it first runs scripts/ci.sh
   (build + tests; set FBA_SKIP_CI=1 to skip, e.g. when already inside
   a dune lock), then measures every perf target plus one large-n
   end-to-end AER run — wall time and allocated words per run, via
   [Gc.allocated_bytes] — and writes BENCH_<rev>.json for diffing
   against the previous revision's file. Perf measurements always run
   single-domain ([--jobs] does not apply), so numbers stay comparable
   across revisions.

   Experiment sweeps shard their grid cells across domains: [--jobs N]
   picks the worker count, [--jobs 1] forces sequential, and the
   default (0) auto-sizes to the machine. Output is byte-identical for
   every jobs value.

   Usage: main.exe [fig1a|fig1b|lemmas|samplers|ablation|robustness|wide|perf|all]
                   [--full] [--json] [--jobs N]
          main.exe perf-target NAME [--record FILE]
                   (scripting: print one target's allocated words per
                   run — scripts/ci.sh diffs this against the recorded
                   BENCH_<rev>.json baseline; --record also writes the
                   measurement as a one-target BENCH-format file. Both
                   micro and e2e/ names resolve; e2e progress goes to
                   stderr so stdout stays one bare number)
          main.exe perf --compare BASE.json NEW.json [--tol PCT]
                   [--metric time|alloc|both]
                   (print per-target time/allocation deltas between two
                   BENCH_<rev>.json files; with --tol, exit non-zero if
                   any gated metric regressed beyond PCT percent)
          main.exe history [--json]
                   (scan ./BENCH_*.json, order by git commit date, and
                   render each target's time/allocation trajectory
                   across revisions)
          main.exe service [--jobs N]
                   (instance-stream throughput: the Service epoch-reset
                   pipeline vs a loop of fresh one-shot runs over the
                   same per-instance seeds, at n=128 and n=1024; merges
                   the service/ rows — instances_per_sec and p50/p99
                   instance latency — into BENCH_<rev>.json) *)

open Bechamel
module Attacks = Fba_adversary.Aer_attacks
module Runner = Fba_harness.Runner

(* --- Bechamel suite: one test per table/figure we regenerate. --- *)

let bench_aer_sync () =
  let sc = Runner.scenario_of_setup Runner.default_setup ~n:128 ~seed:1L in
  ignore (Runner.aer_sync ~adversary:Attacks.silent sc)

let bench_aer_cornering () =
  let sc = Runner.scenario_of_setup Runner.default_setup ~n:128 ~seed:1L in
  ignore (Runner.aer_sync ~adversary:(fun sc -> Attacks.cornering sc) sc)

let bench_aer_async () =
  let sc = Runner.scenario_of_setup Runner.default_setup ~n:96 ~seed:1L in
  ignore (Runner.aer_async ~adversary:(fun sc -> Attacks.async_cornering sc) sc)

let bench_grid () =
  let sc = Runner.scenario_of_setup Runner.default_setup ~n:1024 ~seed:1L in
  ignore (Runner.run_grid sc)

let bench_ba () = ignore (Fba_core.Ba.run_sync ~n:128 ~seed:1L ~byzantine_fraction:0.1 ())

let bench_common_coin () =
  let module RBA = Fba_baselines.Randomized_ba in
  let module E = Fba_sim.Sync_engine.Make (RBA) in
  let n = 128 in
  let cfg =
    RBA.make_config ~n ~t_assumed:20 ~coin:(`Common 7L) ~inputs:(fun i -> i mod 2 = 0) ()
  in
  ignore
    (E.run ~config:cfg ~n ~seed:1L
       ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted:(Fba_stdx.Bitset.create n))
       ~mode:`Rushing ~max_rounds:(RBA.max_engine_rounds cfg) ())

let bench_sampler_quorum =
  let sampler = Fba_samplers.Sampler.create ~seed:1L ~n:1024 ~d:20 in
  let i = ref 0 in
  fun () ->
    incr i;
    ignore (Fba_samplers.Sampler.quorum_sx sampler ~s:"bench" ~x:(!i land 1023))

let bench_boundary () =
  let sampler = Fba_samplers.Sampler.create ~seed:1L ~n:512 ~d:18 in
  let rng = Fba_stdx.Prng.create 3L in
  ignore
    (Fba_samplers.Digraph.boundary_ratio sampler
       (Fba_samplers.Digraph.random_l sampler ~rng ~size:56))

let perf_tests =
  [
    ("fig1a/aer-sync-n128", bench_aer_sync);
    ("fig1a/aer-cornering-n128", bench_aer_cornering);
    ("fig1a/grid-n1024", bench_grid);
    ("lemmas/aer-async-n96", bench_aer_async);
    ("fig1b/ba-composition-n128", bench_ba);
    ("fig1b/common-coin-n128", bench_common_coin);
    ("samplers/quorum-eval", bench_sampler_quorum);
    ("samplers/boundary-n512", bench_boundary);
  ]

let run_perf () =
  print_endline "## Simulator micro-benchmarks (bechamel, monotonic clock)\n";
  let tests =
    Test.make_grouped ~name:"fba"
      (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) perf_tests)
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:30 ~quota:(Time.second 2.0) ~stabilize:false () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  let tbl =
    Fba_stdx.Table.create
      ~columns:[ ("benchmark", Fba_stdx.Table.Left); ("time/run", Fba_stdx.Table.Right) ]
  in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      let cell =
        match Analyze.OLS.estimates r with
        | Some (est :: _) ->
          if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
          else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
          else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
          else Printf.sprintf "%.0f ns" est
        | _ -> "n/a"
      in
      Fba_stdx.Table.add_row tbl [ name; cell ])
    (List.sort compare rows);
  Fba_stdx.Table.print tbl;
  print_newline ()

(* --- JSON perf gate --- *)

let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | ic ->
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown")
  | exception _ -> "unknown"

(* Peak RSS high-water (VmHWM) in kB from /proc/self/status. The
   kernel's high-water mark is process-lifetime; writing "5" to
   /proc/self/clear_refs resets it so per-target readings do not just
   echo the largest target measured earlier. Both reads and the reset
   degrade to 0 / no-op off Linux. *)
let reset_rss_hwm () =
  match open_out "/proc/self/clear_refs" with
  | oc ->
    (try output_string oc "5" with _ -> ());
    (try close_out oc with _ -> ())
  | exception _ -> ()

let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | ic ->
    let rec scan () =
      match input_line ic with
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then begin
          let digits =
            String.to_seq line |> Seq.filter (fun c -> c >= '0' && c <= '9') |> String.of_seq
          in
          close_in ic;
          match int_of_string_opt digits with Some v -> v | None -> 0
        end
        else scan ()
      | exception End_of_file ->
        close_in ic;
        0
    in
    scan ()
  | exception _ -> 0

type row = {
  r_name : string;
  r_time_ns : float;
  r_words : float;  (* allocated words per run *)
  r_runs : int;
  r_peak_words : int;  (* peak mailbox/calendar words (Batch.Peak) *)
  r_rss_kb : int;  (* VmHWM over the measurement *)
  (* Throughput metrics, present only on service/ targets (the
     instance-stream benchmark); [None] elsewhere and in BENCH files
     recorded before the service existed. *)
  r_ips : float option;  (* instances per second *)
  r_p50_ns : float option;  (* p50 instance latency, ns (µs resolution) *)
  r_p99_ns : float option;
}

(* One warm run (fills samplers' caches and the first-touch
   allocations), then timed runs until at least 3 and ~1s of work, so
   cheap targets average over many runs while expensive ones stay
   bounded. The peak gauges bracket the timed runs: [Batch.Peak] is the
   engines' delivery-plane high-water, VmHWM the whole process. *)
let measure_target name f =
  f ();
  Fba_sim.Batch.Peak.reset ();
  reset_rss_hwm ();
  let t0 = Fba_stdx.Monotonic.now_ns () in
  let a0 = Gc.allocated_bytes () in
  let runs = ref 0 in
  while !runs < 3 || (Fba_stdx.Monotonic.now_ns () - t0 < 1_000_000_000 && !runs < 50) do
    f ();
    incr runs
  done;
  let k = float_of_int !runs in
  let time_ns = float_of_int (Fba_stdx.Monotonic.now_ns () - t0) /. k in
  let words = (Gc.allocated_bytes () -. a0) /. 8.0 /. k in
  {
    r_name = name;
    r_time_ns = time_ns;
    r_words = words;
    r_runs = !runs;
    r_peak_words = Fba_sim.Batch.Peak.get ();
    r_rss_kb = peak_rss_kb ();
    r_ips = None;
    r_p50_ns = None;
    r_p99_ns = None;
  }

(* BENCH_<rev>.json rows share one serialization everywhere (perf
   --json and perf-target --record), so the compare-mode parser below
   only ever meets one shape. *)
let write_bench_json ~path ~rev rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"rev\": %S,\n  \"targets\": [" rev;
  List.iteri
    (fun i r ->
      let service_fields =
        match (r.r_ips, r.r_p50_ns, r.r_p99_ns) with
        | Some ips, Some p50, Some p99 ->
          Printf.sprintf
            ", \"instances_per_sec\": %.2f, \"p50_instance_latency_ns\": %.0f, \
             \"p99_instance_latency_ns\": %.0f"
            ips p50 p99
        | _ -> ""
      in
      Printf.fprintf oc
        "%s\n    { \"name\": %S, \"time_ns_per_run\": %.0f, \"allocated_words_per_run\": %.0f, \"runs\": %d, \"peak_mailbox_words\": %d, \"peak_rss_kb\": %d%s }"
        (if i = 0 then "" else ",")
        r.r_name r.r_time_ns r.r_words r.r_runs r.r_peak_words r.r_rss_kb service_fields)
    rows;
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc

(* --- perf --compare: diff two BENCH_<rev>.json files --- *)

(* A parsed BENCH row. Optional fields were added to the format over
   time ([p_peak]/[p_rss] by the streamed-plane PR, the three
   service metrics by the instance-stream PR) and are [None] when the
   recording predates them. *)
type prow = {
  p_name : string;
  p_time : float;
  p_words : float;
  p_runs : int;
  p_peak : float option;
  p_rss : float option;
  p_ips : float option;
  p_p50 : float option;
  p_p99 : float option;
}

(* Minimal scanner for the rigid JSON this harness itself writes (see
   [write_bench_json]): every target object carries "name",
   "time_ns_per_run" and "allocated_words_per_run" in order. No
   external JSON dependency — the container ships none. *)
let parse_bench path =
  let ic =
    try open_in_bin path
    with Sys_error msg ->
      Printf.eprintf "perf --compare: cannot open %s: %s\n" path msg;
      exit 2
  in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let len = String.length s in
  let find sub from =
    let m = String.length sub in
    let rec go i =
      if i + m > len then None
      else if String.sub s i m = sub then Some (i + m)
      else go (i + 1)
    in
    go from
  in
  let number from =
    let stop = ref from in
    while
      !stop < len
      && (match s.[!stop] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
    do
      incr stop
    done;
    match float_of_string_opt (String.sub s from (!stop - from)) with
    | Some v -> v
    | None ->
      Printf.eprintf "perf --compare: malformed number in %s at byte %d\n" path from;
      exit 2
  in
  let field key from =
    match find (Printf.sprintf "\"%s\": " key) from with
    | Some i -> number i
    | None ->
      Printf.eprintf "perf --compare: %s: missing %S after byte %d\n" path key from;
      exit 2
  in
  (* Optional fields (added to the format later; absent from older
     checked-in BENCH files) must not be picked up from the *next*
     target's object, so the search is bounded by the next "name". *)
  let field_opt key from ~stop =
    match find (Printf.sprintf "\"%s\": " key) from with
    | Some i when i < stop -> Some (number i)
    | _ -> None
  in
  let rec targets from acc =
    match find "\"name\": \"" from with
    | None -> List.rev acc
    | Some i ->
      let close = try String.index_from s i '"' with Not_found -> len in
      let name = String.sub s i (close - i) in
      let stop = match find "\"name\": \"" close with Some j -> j | None -> len in
      let time_ns = field "time_ns_per_run" close in
      let words = field "allocated_words_per_run" close in
      let runs = int_of_float (field "runs" close) in
      let peak_words = field_opt "peak_mailbox_words" close ~stop in
      let rss_kb = field_opt "peak_rss_kb" close ~stop in
      let ips = field_opt "instances_per_sec" close ~stop in
      let p50 = field_opt "p50_instance_latency_ns" close ~stop in
      let p99 = field_opt "p99_instance_latency_ns" close ~stop in
      targets close
        ({
           p_name = name;
           p_time = time_ns;
           p_words = words;
           p_runs = runs;
           p_peak = peak_words;
           p_rss = rss_kb;
           p_ips = ips;
           p_p50 = p50;
           p_p99 = p99;
         }
        :: acc)
  in
  targets 0 []

let pct delta base = if base = 0.0 then 0.0 else (delta -. base) /. base *. 100.0

(* Per-target deltas between two recorded runs; exit 1 when any gated
   metric regresses beyond [tol] percent (improvements never fail). *)
let run_compare base_path new_path ~tol ~metric =
  let base = parse_bench base_path in
  let curr = parse_bench new_path in
  Printf.printf "## perf compare: %s -> %s\n\n" base_path new_path;
  let gate_time = metric = `Time || metric = `Both in
  let gate_alloc = metric = `Alloc || metric = `Both in
  let tbl =
    Fba_stdx.Table.create
      ~columns:
        [
          ("target", Fba_stdx.Table.Left);
          ("time/run", Fba_stdx.Table.Right);
          ("delta", Fba_stdx.Table.Right);
          ("words/run", Fba_stdx.Table.Right);
          ("delta", Fba_stdx.Table.Right);
          ("peak words", Fba_stdx.Table.Right);
          ("delta", Fba_stdx.Table.Right);
          ("rss kb", Fba_stdx.Table.Right);
          ("inst/s", Fba_stdx.Table.Right);
          ("delta", Fba_stdx.Table.Right);
        ]
  in
  let opt_cell = function Some v -> Printf.sprintf "%.0f" v | None -> "-" in
  let opt_cell2 = function Some v -> Printf.sprintf "%.1f" v | None -> "-" in
  (* Peak deltas render (memory is the point of the streamed plane) but
     never gate: the field is absent from older baselines and VmHWM is
     too machine-dependent for a hard threshold here — scripts/ci.sh
     gates peak_mailbox_words explicitly when the baseline has it. *)
  let opt_delta nv bv =
    match (nv, bv) with Some n, Some b -> Printf.sprintf "%+.1f%%" (pct n b) | _ -> "-"
  in
  let failures = ref [] in
  (* One-sided targets never gate (ci compares a one-target record
     against the full baseline), but silence would let a renamed or
     deleted benchmark vanish from the radar — report them loudly. *)
  let one_sided = ref [] in
  List.iter
    (fun b ->
      match List.find_opt (fun c -> c.p_name = b.p_name) curr with
      | None ->
        one_sided :=
          Printf.sprintf "target %S is in %s but not in %s" b.p_name base_path new_path
          :: !one_sided;
        (* Union row with the side that does exist: the baseline values,
           marked [removed], so a renamed benchmark's last numbers stay
           on the table instead of vanishing. *)
        Fba_stdx.Table.add_row tbl
          [ b.p_name; Printf.sprintf "%.2f ms" (b.p_time /. 1e6); "removed";
            Printf.sprintf "%.0f" b.p_words; "removed"; opt_cell b.p_peak; "removed"; "-";
            opt_cell2 b.p_ips; "removed" ]
      | Some c ->
        let dt = pct c.p_time b.p_time and dw = pct c.p_words b.p_words in
        Fba_stdx.Table.add_row tbl
          [
            b.p_name;
            Printf.sprintf "%.2f ms" (c.p_time /. 1e6);
            Printf.sprintf "%+.1f%%" dt;
            Printf.sprintf "%.0f" c.p_words;
            Printf.sprintf "%+.1f%%" dw;
            opt_cell c.p_peak;
            opt_delta c.p_peak b.p_peak;
            opt_cell c.p_rss;
            opt_cell2 c.p_ips;
            opt_delta c.p_ips b.p_ips;
          ];
        (match tol with
        | Some tol ->
          if gate_time && dt > tol then
            failures :=
              Printf.sprintf "%s: time %+.1f%% (tol %.1f%%)" b.p_name dt tol :: !failures;
          if gate_alloc && dw > tol then
            failures :=
              Printf.sprintf "%s: allocation %+.1f%% (tol %.1f%%)" b.p_name dw tol :: !failures
        | None -> ()))
    base;
  List.iter
    (fun c ->
      if not (List.exists (fun b -> b.p_name = c.p_name) base) then begin
        one_sided :=
          Printf.sprintf "target %S is in %s but not in %s" c.p_name new_path base_path
          :: !one_sided;
        Fba_stdx.Table.add_row tbl
          [ c.p_name; Printf.sprintf "%.2f ms" (c.p_time /. 1e6); "new";
            Printf.sprintf "%.0f" c.p_words; "new"; opt_cell c.p_peak; "new";
            opt_cell c.p_rss; opt_cell2 c.p_ips; "new" ]
      end)
    curr;
  Fba_stdx.Table.print tbl;
  print_newline ();
  List.iter (fun w -> Printf.eprintf "compare warning: %s\n" w) (List.rev !one_sided);
  match !failures with
  | [] ->
    (match tol with
    | Some tol ->
      Printf.printf "compare gate ok: no target regressed beyond %.1f%% (%s)\n" tol
        (match metric with `Time -> "time" | `Alloc -> "allocation" | `Both -> "time+allocation")
    | None -> ());
    exit 0
  | fs ->
    List.iter (fun f -> Printf.eprintf "compare gate FAILED: %s\n" f) (List.rev fs);
    exit 1

(* --- bench history: per-target trajectory across checked-in BENCH files --- *)

let git_commit_time rev =
  let cmd = Printf.sprintf "git show -s --format=%%ct %s 2>/dev/null" (Filename.quote rev) in
  match Unix.open_process_in cmd with
  | ic ->
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> int_of_string_opt line
    | _ -> None)
  | exception _ -> None

(* Every [perf --json] run leaves a BENCH_<rev>.json behind; lining
   them up in commit order turns the point-to-point compare gate into
   a trajectory — where each target's time and allocation have been
   heading across the stacked PRs. *)
let run_history ~json () =
  let files =
    Sys.readdir "."
    |> Array.to_list
    |> List.filter (fun f ->
           String.length f > String.length "BENCH_.json"
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  if files = [] then begin
    prerr_endline "bench history: no BENCH_*.json files in the current directory";
    exit 2
  end;
  let rev_of f =
    let stem = Filename.chop_suffix f ".json" in
    String.sub stem 6 (String.length stem - 6)
  in
  let entries = List.map (fun f -> (f, rev_of f, git_commit_time (rev_of f), parse_bench f)) files in
  (* Commit-date order, oldest first; revisions git doesn't know (a
     file copied from another checkout) sort last in file-name order. *)
  let entries =
    List.stable_sort
      (fun (_, _, a, _) (_, _, b, _) ->
        match (a, b) with
        | Some x, Some y -> compare x y
        | Some _, None -> -1
        | None, Some _ -> 1
        | None, None -> 0)
      entries
  in
  let target_names =
    List.fold_left
      (fun acc (_, _, _, rows) ->
        List.fold_left
          (fun acc r -> if List.mem r.p_name acc then acc else acc @ [ r.p_name ])
          acc rows)
      [] entries
  in
  let lookup rows name = List.find_opt (fun r -> r.p_name = name) rows in
  let opt_num = function Some v -> Printf.sprintf "%.0f" v | None -> "null" in
  if json then begin
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\"bench_history_version\":1,\"revs\":[";
    List.iteri
      (fun i (f, rev, ct, _) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "{\"rev\":%S,\"file\":%S,\"commit_time\":%s}" rev f
             (match ct with Some t -> string_of_int t | None -> "null")))
      entries;
    Buffer.add_string b "],\"targets\":[";
    let series key proj =
      Buffer.add_string b (Printf.sprintf "%S:[" key);
      fun name ->
        List.iteri
          (fun j (_, _, _, rows) ->
            if j > 0 then Buffer.add_char b ',';
            Buffer.add_string b
              (match lookup rows name with Some r -> proj r | None -> "null"))
          entries;
        Buffer.add_char b ']'
    in
    List.iteri
      (fun i name ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "{\"name\":%S," name);
        (series "time_ns_per_run" (fun r -> Printf.sprintf "%.0f" r.p_time)) name;
        Buffer.add_char b ',';
        (series "allocated_words_per_run" (fun r -> Printf.sprintf "%.0f" r.p_words)) name;
        Buffer.add_char b ',';
        (* Optional gauges (peak words/rss, then the service metrics)
           are null before the revision that introduced them —
           consumers see exactly when each field starts existing. *)
        (series "peak_mailbox_words" (fun r -> opt_num r.p_peak)) name;
        Buffer.add_char b ',';
        (series "peak_rss_kb" (fun r -> opt_num r.p_rss)) name;
        Buffer.add_char b ',';
        (series "instances_per_sec"
           (fun r -> match r.p_ips with Some v -> Printf.sprintf "%.2f" v | None -> "null"))
          name;
        Buffer.add_char b ',';
        (series "p50_instance_latency_ns" (fun r -> opt_num r.p_p50)) name;
        Buffer.add_char b ',';
        (series "p99_instance_latency_ns" (fun r -> opt_num r.p_p99)) name;
        Buffer.add_char b '}')
      target_names;
    Buffer.add_string b "]}";
    print_endline (Buffer.contents b)
  end
  else begin
    Printf.printf "## bench history: %d revisions, oldest -> newest\n\n" (List.length entries);
    List.iter
      (fun (f, rev, ct, _) ->
        Printf.printf "  %-10s %s%s\n" rev f
          (match ct with
          | Some t -> Printf.sprintf "  (commit time %d)" t
          | None -> "  (rev unknown to git; ordered last)"))
      entries;
    print_newline ();
    let trajectory title cell =
      Printf.printf "### %s\n\n" title;
      let tbl =
        Fba_stdx.Table.create
          ~columns:
            (("target", Fba_stdx.Table.Left)
            :: List.map (fun (_, rev, _, _) -> (rev, Fba_stdx.Table.Right)) entries)
      in
      List.iter
        (fun name ->
          Fba_stdx.Table.add_row tbl
            (name
            :: List.map
                 (fun (_, _, _, rows) ->
                   match lookup rows name with Some r -> cell r | None -> "-")
                 entries))
        target_names;
      Fba_stdx.Table.print tbl;
      print_newline ()
    in
    trajectory "time per run" (fun r -> Printf.sprintf "%.2f ms" (r.p_time /. 1e6));
    trajectory "allocated words per run" (fun r -> Printf.sprintf "%.0f" r.p_words);
    trajectory "peak mailbox words" (fun r ->
        match r.p_peak with Some v -> Printf.sprintf "%.0f" v | None -> "-");
    (* Service throughput columns: only service/ targets carry them;
       every other cell (and every pre-service revision) renders "-"
       without warnings, like the peak columns above. *)
    trajectory "instances per second" (fun r ->
        match r.p_ips with Some v -> Printf.sprintf "%.1f" v | None -> "-");
    trajectory "p50 / p99 instance latency" (fun r ->
        match (r.p_p50, r.p_p99) with
        | Some p50, Some p99 ->
          Printf.sprintf "%.1f / %.1f ms" (p50 /. 1e6) (p99 /. 1e6)
        | _ -> "-")
  end;
  exit 0

(* The sweep-scale end-to-end configurations the micro targets
   extrapolate to, each measured once. n=4096 exists because the packed
   message plane makes it affordable (the first grid tier beyond the
   historical n=1024 ceiling); n=16384 and n=65536 are the wide-layout
   lane, with shared junk because unique junk cannot fit any wide sid
   field at those populations. *)
let e2e_targets =
  [
    ("e2e/aer-cornering-n1024", 1024, Fba_core.Scenario.Junk_unique);
    ("e2e/aer-cornering-n4096", 4096, Fba_core.Scenario.Junk_unique);
    ("e2e/aer-cornering-n16384", 16384, Fba_core.Scenario.Junk_shared 8);
    ("e2e/aer-cornering-n65536", 65536, Fba_core.Scenario.Junk_shared 8);
  ]

let measure_e2e ?(progress = stdout) (name, n, junk) =
  let sc = Runner.scenario_of_setup { Runner.default_setup with Runner.junk } ~n ~seed:1L in
  Fba_sim.Batch.Peak.reset ();
  reset_rss_hwm ();
  let t0 = Fba_stdx.Monotonic.now_ns () in
  let a0 = Gc.allocated_bytes () in
  ignore (Runner.aer_sync ~adversary:(fun sc -> Attacks.cornering sc) sc);
  let ns = float_of_int (Fba_stdx.Monotonic.now_ns () - t0) in
  let words = (Gc.allocated_bytes () -. a0) /. 8.0 in
  let peak = Fba_sim.Batch.Peak.get () in
  let rss = peak_rss_kb () in
  Printf.fprintf progress "%-28s %12.0f ns/run %14.0f words/run %12d peak-words  (1 run)\n%!"
    name ns words peak;
  { r_name = name; r_time_ns = ns; r_words = words; r_runs = 1; r_peak_words = peak;
    r_rss_kb = rss; r_ips = None; r_p50_ns = None; r_p99_ns = None }

(* --- service throughput: the instance-stream benchmark --- *)

module Service = Fba_harness.Service

(* Two rows per population size: a loop over fresh one-shot Runner
   runs (the historical path — every instance reallocates its
   scenario, quorum caches, compiled tables and mailbox) and the same
   instances through the Service epoch-reset pipeline. Both execute
   the identical per-instance seed schedule, so the throughput ratio
   isolates the storage strategy; CI separately byte-diffs the
   per-instance traces. *)
let service_sizes = [ (128, 48); (1024, 6) ]

let measure_service_pair ?(progress = stdout) ~jobs (n, instances) =
  let stream_seed = 42L in
  let adversary sc = Attacks.cornering sc in
  let pct_ns h p =
    match Fba_stdx.Histogram.percentile_opt h p with
    | None -> 0.0
    | Some us -> float_of_int us *. 1000.0
  in
  let hist = Fba_stdx.Histogram.create () in
  Fba_sim.Batch.Peak.reset ();
  reset_rss_hwm ();
  let t0 = Fba_stdx.Monotonic.now_ns () in
  let a0 = Gc.allocated_bytes () in
  for k = 0 to instances - 1 do
    let ik = Fba_stdx.Monotonic.now_ns () in
    let seed = Service.instance_seed stream_seed k in
    let sc = Runner.scenario_of_setup Runner.default_setup ~n ~seed in
    ignore (Runner.aer_sync ~adversary sc);
    Fba_stdx.Histogram.add hist (max 0 ((Fba_stdx.Monotonic.now_ns () - ik) / 1000))
  done;
  let dt = float_of_int (Fba_stdx.Monotonic.now_ns () - t0) /. 1e9 in
  let oneshot =
    {
      r_name = Printf.sprintf "service/oneshot-n%d" n;
      r_time_ns = dt /. float_of_int instances *. 1e9;
      r_words = (Gc.allocated_bytes () -. a0) /. 8.0 /. float_of_int instances;
      r_runs = instances;
      r_peak_words = Fba_sim.Batch.Peak.get ();
      r_rss_kb = peak_rss_kb ();
      r_ips = Some (float_of_int instances /. dt);
      r_p50_ns = Some (pct_ns hist 50.0);
      r_p99_ns = Some (pct_ns hist 99.0);
    }
  in
  Printf.fprintf progress "%-28s %12.0f ns/inst %14.2f inst/s  (%d instances)\n%!"
    oneshot.r_name oneshot.r_time_ns
    (match oneshot.r_ips with Some v -> v | None -> 0.0)
    instances;
  Fba_sim.Batch.Peak.reset ();
  reset_rss_hwm ();
  (* Gc.allocated_bytes is domain-local; the recorded rows run jobs=1
     so the figure covers every instance. *)
  let a1 = Gc.allocated_bytes () in
  let s =
    Service.run
      ~stream:{ Service.default_stream with Service.n; instances; stream_seed; width = 4; jobs }
      ~adversary ()
  in
  let stream_row =
    {
      r_name = Printf.sprintf "service/stream-n%d" n;
      r_time_ns = float_of_int s.Service.elapsed_ns /. float_of_int instances;
      r_words = (Gc.allocated_bytes () -. a1) /. 8.0 /. float_of_int instances;
      r_runs = instances;
      r_peak_words = Fba_sim.Batch.Peak.get ();
      r_rss_kb = peak_rss_kb ();
      r_ips = Some s.Service.instances_per_sec;
      r_p50_ns = Some (float_of_int s.Service.p50_instance_latency_ns);
      r_p99_ns = Some (float_of_int s.Service.p99_instance_latency_ns);
    }
  in
  Printf.fprintf progress "%-28s %12.0f ns/inst %14.2f inst/s  (%d instances)\n%!"
    stream_row.r_name stream_row.r_time_ns s.Service.instances_per_sec instances;
  [ oneshot; stream_row ]

(* [bench service] re-records only its own rows: merge into the
   current revision's BENCH file (written by this same harness, so
   reconstruction is exact), keeping every non-service row. *)
let merge_bench_rows rows =
  let rev = git_rev () in
  let path = Printf.sprintf "BENCH_%s.json" rev in
  let kept =
    if Sys.file_exists path then
      List.filter
        (fun p -> not (List.exists (fun r -> r.r_name = p.p_name) rows))
        (parse_bench path)
    else []
  in
  let of_prow p =
    {
      r_name = p.p_name;
      r_time_ns = p.p_time;
      r_words = p.p_words;
      r_runs = p.p_runs;
      r_peak_words = (match p.p_peak with Some v -> int_of_float v | None -> 0);
      r_rss_kb = (match p.p_rss with Some v -> int_of_float v | None -> 0);
      r_ips = p.p_ips;
      r_p50_ns = p.p_p50;
      r_p99_ns = p.p_p99;
    }
  in
  write_bench_json ~path ~rev (List.map of_prow kept @ rows);
  Printf.printf "\nwrote %s\n" path

let run_service ~jobs () =
  print_endline "## Agreement as a service: instance-stream throughput\n";
  let rows = List.concat_map (fun sz -> measure_service_pair ~jobs sz) service_sizes in
  print_newline ();
  List.iter
    (fun (n, _) ->
      let find name = List.find_opt (fun r -> r.r_name = name) rows in
      match
        (find (Printf.sprintf "service/oneshot-n%d" n), find (Printf.sprintf "service/stream-n%d" n))
      with
      | Some o, Some s -> (
        match (o.r_ips, s.r_ips, s.r_p50_ns, s.r_p99_ns) with
        | Some oi, Some si, Some p50, Some p99 ->
          Printf.printf
            "n=%-5d stream %.2f inst/s vs one-shot %.2f inst/s (%.2fx); p50 %.1f ms, p99 %.1f ms\n"
            n si oi (si /. oi) (p50 /. 1e6) (p99 /. 1e6)
        | _ -> ())
      | _ -> ())
    service_sizes;
  merge_bench_rows rows

let run_perf_json () =
  (match Sys.getenv_opt "FBA_SKIP_CI" with
  | Some _ -> print_endline "## perf gate: FBA_SKIP_CI set, skipping scripts/ci.sh"
  | None ->
    if Sys.file_exists "scripts/ci.sh" then begin
      print_endline "## perf gate: running scripts/ci.sh (set FBA_SKIP_CI=1 to skip)";
      let rc = Sys.command "sh scripts/ci.sh" in
      if rc <> 0 then begin
        Printf.eprintf "perf --json: scripts/ci.sh failed (exit %d); not recording numbers\n" rc;
        exit rc
      end
    end
    else print_endline "## perf gate: scripts/ci.sh not found (not at repo root?), skipping");
  print_endline "## Perf targets (wall time, allocated words and peak mailbox words per run)\n";
  let rows =
    List.map
      (fun (name, f) ->
        let r = measure_target name f in
        Printf.printf "%-28s %12.0f ns/run %14.0f words/run %12d peak-words  (%d runs)\n%!"
          r.r_name r.r_time_ns r.r_words r.r_peak_words r.r_runs;
        r)
      perf_tests
  in
  let rows = rows @ List.map measure_e2e e2e_targets in
  (* Instance-stream throughput rows, always single-domain here (like
     every perf measurement) so numbers stay comparable across
     revisions; [bench service --jobs N] explores the sharded lane. *)
  let rows = rows @ List.concat_map (measure_service_pair ~jobs:1) service_sizes in
  let rev = git_rev () in
  let path = Printf.sprintf "BENCH_%s.json" rev in
  write_bench_json ~path ~rev rows;
  Printf.printf "\nwrote %s\n" path

(* --- Entry point --- *)

module Experiment = Fba_harness.Experiment

let experiments : Experiment.t list =
  [
    (module Fba_harness.Exp_fig1a);
    (module Fba_harness.Exp_fig1b);
    (module Fba_harness.Exp_lemmas);
    (module Fba_harness.Exp_samplers);
    (module Fba_harness.Exp_ablation);
    (module Fba_harness.Exp_robustness);
    (module Fba_harness.Exp_wide);
  ]

(* [--jobs N] / [-j N]: worker-domain count for experiment sweeps.
   Absent or 0 = auto-size to the machine; 1 = sequential. *)
let rec extract_jobs acc = function
  | [] -> (0, List.rev acc)
  | ("--jobs" | "-j") :: v :: rest -> (
    match int_of_string_opt v with
    | Some j when j >= 0 -> (j, List.rev_append acc rest)
    | _ ->
      Printf.eprintf "--jobs expects a non-negative integer, got %S\n" v;
      exit 2)
  | [ ("--jobs" | "-j") ] ->
    prerr_endline "--jobs expects an argument";
    exit 2
  | a :: rest -> extract_jobs (a :: acc) rest

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let jobs, args = extract_jobs [] args in
  let full = List.mem "--full" args in
  let json = List.mem "--json" args in
  let which = List.filter (fun a -> a <> "--full" && a <> "--json") args in
  let which = if which = [] then [ "all" ] else which in
  (match which with
  | "perf-target" :: name :: rest -> (
    let record =
      match rest with
      | [] -> None
      | [ "--record"; path ] -> Some path
      | _ ->
        prerr_endline "perf-target usage: perf-target NAME [--record FILE]";
        exit 2
    in
    (* Bare stdout by design: one number, for scripts/ci.sh. [--record]
       additionally writes the full measurement as a one-target
       BENCH-format file so [perf --compare] can gate on it. *)
    let finish r =
      (match record with
      | Some path -> write_bench_json ~path ~rev:(git_rev ()) [ r ]
      | None -> ());
      Printf.printf "%.0f\n" r.r_words;
      exit 0
    in
    match List.assoc_opt name perf_tests with
    | Some f -> finish (measure_target name f)
    | None -> (
      match List.find_opt (fun (e, _, _) -> e = name) e2e_targets with
      | Some target -> finish (measure_e2e ~progress:stderr target)
      | None -> (
        (* service/ names measure the whole oneshot-vs-stream pair at
           that population (the ratio is the point); [--record] writes
           both rows so the compare gate covers each. *)
        match
          List.find_opt
            (fun (n, _) ->
              name = Printf.sprintf "service/stream-n%d" n
              || name = Printf.sprintf "service/oneshot-n%d" n)
            service_sizes
        with
        | Some sz ->
          let rows = measure_service_pair ~progress:stderr ~jobs:1 sz in
          (match record with
          | Some path -> write_bench_json ~path ~rev:(git_rev ()) rows
          | None -> ());
          let r = List.find (fun r -> r.r_name = name) rows in
          Printf.printf "%.0f\n" r.r_words;
          exit 0
        | None ->
          Printf.eprintf "unknown perf target %S\n" name;
          exit 2)))
  | [ "perf-target" ] ->
    prerr_endline "perf-target expects a target name";
    exit 2
  | "history" :: rest ->
    if rest <> [] then begin
      prerr_endline "history usage: history [--json]";
      exit 2
    end;
    run_history ~json ()
  | "service" :: rest ->
    if rest <> [] then begin
      prerr_endline "service usage: service [--jobs N]";
      exit 2
    end;
    run_service ~jobs ();
    exit 0
  | "perf" :: "--compare" :: rest ->
    let rec parse files tol metric = function
      | [] -> (List.rev files, tol, metric)
      | "--tol" :: v :: rest -> (
        match float_of_string_opt v with
        | Some t when t >= 0.0 -> parse files (Some t) metric rest
        | _ ->
          Printf.eprintf "--tol expects a non-negative percentage, got %S\n" v;
          exit 2)
      | "--metric" :: v :: rest -> (
        match v with
        | "time" -> parse files tol `Time rest
        | "alloc" -> parse files tol `Alloc rest
        | "both" -> parse files tol `Both rest
        | _ ->
          Printf.eprintf "--metric expects time|alloc|both, got %S\n" v;
          exit 2)
      | f :: rest -> parse (f :: files) tol metric rest
    in
    (match parse [] None `Both rest with
    | [ base; curr ], tol, metric -> run_compare base curr ~tol ~metric
    | _ ->
      prerr_endline
        "perf --compare usage: perf --compare BASE.json NEW.json [--tol PCT] [--metric \
         time|alloc|both]";
      exit 2)
  | _ -> ());
  let run_exp e =
    Experiment.run ~jobs ~full e ~out:stdout ();
    flush stdout
  in
  let run_one name =
    match List.find_opt (fun e -> Experiment.name e = name) experiments with
    | Some e -> run_exp e
    | None when name = "perf" -> if json then run_perf_json () else run_perf ()
    | None when name = "all" ->
      List.iter run_exp experiments;
      run_perf ()
    | None ->
      Printf.eprintf
        "unknown benchmark %S (expected fig1a|fig1b|lemmas|samplers|ablation|robustness|perf|all)\n"
        name;
      exit 2
  in
  Printf.printf "# Fast Byzantine Agreement (PODC 2013) - table regeneration%s\n\n"
    (if full then " (full grids)" else " (quick grids; pass --full for larger sizes)");
  List.iter run_one which
