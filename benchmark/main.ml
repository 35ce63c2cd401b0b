(* The benchmark's command line. See README.md.

   main.exe --workload W --seed N --seconds T --trace 0|1
       One workload for T seconds: after the start-up checks and a
       warm-up, repeat reps (traced and untraced alternating when
       --trace 1) while the next one fits in T. Prints each metric as
       "workload metric value unit", then one JSON result line.
   main.exe run --seed S --out results.json [--trace FILE]
       Every workload in one process: 10 untraced reps interleaved
       rep-major, then one traced rep each. Writes
       results.json, and the traced reps' spans as JSONL to FILE.
   main.exe compare BASE.json NEW.json
       One row per workload × end-to-end metric; exits 1 on a
       regression.

   Every mode exits non-zero when an output is wrong. *)

open Fba_benchmark
module J = Json

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds T --trace 0|1\n\
    \       main.exe run --seed S --out FILE [--trace FILE]\n\
    \       main.exe compare BASE.json NEW.json";
  exit 2

(* --flag value pairs; anything else is a usage error. *)
let flags args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> go ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] args

let flag fl name ~parse =
  match List.assoc_opt name fl with
  | None -> None
  | Some v -> ( match parse v with Some x -> Some x | None -> usage ())

let required fl name ~parse = match flag fl name ~parse with Some x -> x | None -> usage ()

let print_metric (st : Suite.state) name value unit =
  Printf.printf "%s %s %.6g %s\n" st.Suite.w.Suite.name name value unit

(* Which executions ran: the screened stream and the digest of their fingerprints. *)
let print_identity (st : Suite.state) =
  let name = st.Suite.w.Suite.name in
  Printf.printf "%s stream_seed %Ld (%d streams screened out)\n" name st.Suite.stream_seed
    st.Suite.screened;
  Printf.printf "%s exec_digest %s\n" name (Suite.exec_digest st)

let print_problems (st : Suite.state) =
  List.iter (fun p -> Printf.eprintf "error: %s\n" p) (List.rev st.Suite.problems)

(* One rep, with a progress line on stderr. *)
let rep (st : Suite.state) ~traced =
  let w = st.Suite.w in
  let r = Suite.run_rep st ~traced in
  Printf.eprintf
    "[benchmark] %s %s rep: %.3f s, p50 %.2f ms (%.2f scaled), setup %.3f ms, scale %.3f, calib \
     %.2f ms\n\
     %!"
    w.Suite.name
    (if traced then "traced" else "untraced")
    (float_of_int r.Suite.wall_ns /. 1e9)
    (Suite.rep_value ~raw:true w "lat_p50_ms" r)
    (Suite.rep_value w "lat_p50_ms" r)
    (1e3 *. Suite.rep_value w "setup_s" r)
    r.Suite.scale r.Suite.calib_ms;
  r

let value_json (name, v, unit) = (name, J.Obj [ ("value", J.Num v); ("unit", J.Str unit) ])

(* --- One workload, timed (the form BENCHMARK.json names) --- *)

(* The T seconds cover start-up too, and a rep (with --trace 1, a pair)
   starts only if one as long as the last still fits in them. *)
let single ~workload ~seed ~seconds ~trace =
  let t0 = Clock.now_ns () in
  let w = match Suite.find workload with Some w -> w | None -> usage () in
  let st = Suite.init w ~seed in
  let budget = seconds * 1_000_000_000 in
  let rec loop () =
    let t = Clock.now_ns () in
    ignore (rep st ~traced:false);
    if trace then ignore (rep st ~traced:true);
    let now = Clock.now_ns () in
    if now - t0 + (now - t) <= budget then loop ()
  in
  loop ();
  let metrics =
    if trace then Suite.layers st
    else
      List.map
        (fun (m : Suite.metric) -> (m.Suite.name, (Suite.summarize st m).Suite.value, m.Suite.unit))
        Suite.result_line_metrics
  in
  List.iter (fun (name, v, unit) -> print_metric st name v unit) metrics;
  print_identity st;
  print_problems st;
  let correct = Suite.correct st in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int (Suite.attempted st));
            ("failed", J.Int (Suite.failed st));
            ("metrics", J.Obj (List.map value_json metrics));
          ]));
  exit (if correct then 0 else 1)

(* --- Every workload, interleaved --- *)

let better_name = function Suite.Higher -> "higher" | Lower -> "lower" | Exact -> "exact"

let workload_json (st : Suite.state) =
  let w = st.Suite.w in
  let summary (m : Suite.metric) =
    let s = Suite.summarize st m in
    ( m.Suite.name,
      J.Obj
        [
          ("value", J.Num s.Suite.value);
          ("unit", J.Str m.Suite.unit);
          ("better", J.Str (better_name m.Suite.better));
          ("bound", J.Num m.Suite.bound);
          ("median", J.Num s.Suite.median);
          ("q1", J.Num s.Suite.q1);
          ("q3", J.Num s.Suite.q3);
          ("samples", J.Int s.Suite.samples);
          ("per_rep", J.Arr (Array.to_list (Array.map (fun v -> J.Num v) s.Suite.per_rep)));
        ] )
  in
  J.Obj
    [
      ("n", J.Int w.Suite.n);
      ("instances_per_rep", J.Int w.Suite.k);
      ("reps", J.Int (List.length st.Suite.untraced));
      ("stream_seed", J.Str (Int64.to_string st.Suite.stream_seed));
      ("streams_screened_out", J.Int st.Suite.screened);
      ("exec_digest", J.Str (Suite.exec_digest st));
      ("attempted", J.Int (Suite.attempted st));
      ("failed", J.Int (Suite.failed st));
      ("problems", J.Arr (List.rev_map (fun p -> J.Str p) st.Suite.problems));
      ("metrics", J.Obj (List.map summary (List.filter (Suite.reported st) Suite.e2e)));
      ("layers", J.Obj (List.map value_json (Suite.layers st)));
    ]

let reps = 10

let run_all ~seed ~out ~trace_file =
  let t_start = Clock.now_ns () in
  let load_start = Machine.loadavg () in
  let states = List.map (fun w -> Suite.init w ~seed) Suite.workloads in
  let calib = ref [] in
  let rep st ~traced = calib := (rep st ~traced).Suite.calib_ms :: !calib in
  for _ = 1 to reps do
    List.iter (rep ~traced:false) states
  done;
  List.iter (rep ~traced:true) states;
  (match trace_file with
  | None -> ()
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        List.iter
          (fun (st : Suite.state) ->
            List.iteri
              (fun i r -> Spans.write_jsonl oc ~workload:st.Suite.w.Suite.name ~rep:i r.Suite.roots)
              (List.rev st.Suite.traced_reps))
          states));
  List.iter
    (fun (st : Suite.state) ->
      List.iter
        (fun (m : Suite.metric) ->
          print_metric st m.Suite.name (Suite.summarize st m).Suite.value m.Suite.unit)
        (List.filter (Suite.reported st) Suite.e2e);
      List.iter (fun (name, v, unit) -> print_metric st name v unit) (Suite.layers st);
      print_identity st;
      print_problems st)
    states;
  let wall_s = float_of_int (Clock.now_ns () - t_start) /. 1e9 in
  let machine =
    J.Obj
      [
        ("commit", J.Str (Machine.git_commit ()));
        ("dirty", match Machine.git_dirty () with Some d -> J.Bool d | None -> J.Null);
        ("ocaml", J.Str Sys.ocaml_version);
        ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
        ("nproc", J.Int (Machine.nproc ()));
        ("loadavg_start", J.Str load_start);
        ("loadavg_end", J.Str (Machine.loadavg ()));
        ("calib_ms", J.Arr (List.rev_map (fun v -> J.Num v) !calib));
      ]
  in
  let doc =
    J.Obj
      [
        ("seed", J.Int (Int64.to_int seed));
        ("reps", J.Int reps);
        ("wall_s", J.Num wall_s);
        ("machine", machine);
        ( "workloads",
          J.Obj (List.map (fun st -> (st.Suite.w.Suite.name, workload_json st)) states) );
      ]
  in
  Out_channel.with_open_text out (fun oc ->
      output_string oc (J.to_string doc);
      output_char oc '\n');
  Printf.printf "total wall time %.1f s\n" wall_s;
  exit (if List.for_all Suite.correct states then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args ->
    let fl = flags args in
    run_all
      ~seed:(required fl "--seed" ~parse:Int64.of_string_opt)
      ~out:(required fl "--out" ~parse:Option.some)
      ~trace_file:(flag fl "--trace" ~parse:Option.some)
  | [ "compare"; base; fresh ] -> exit (Compare.main ~base ~fresh)
  | args ->
    let fl = flags args in
    single
      ~workload:(required fl "--workload" ~parse:Option.some)
      ~seed:(required fl "--seed" ~parse:Int64.of_string_opt)
      ~seconds:(required fl "--seconds" ~parse:int_of_string_opt)
      ~trace:
        (required fl "--trace" ~parse:(function
          | "0" -> Some false
          | "1" -> Some true
          | _ -> None))
