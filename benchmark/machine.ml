(* What the benchmark records about the machine and process around the
   workloads: peak resident memory, a fixed calibration kernel, and the
   stamp written into results.json. Reads degrade to 0 / "unknown" off
   Linux or outside a git checkout. *)

open Fba_stdx

let read_file path =
  match open_in path with
  | ic ->
    let s = try In_channel.input_all ic with _ -> "" in
    close_in_noerr ic;
    s
  | exception Sys_error _ -> ""

(* Writing "5" to clear_refs resets VmHWM to the current RSS, so each
   rep's peak is its own. *)
let reset_rss_hwm () =
  match open_out "/proc/self/clear_refs" with
  | oc ->
    (try output_string oc "5" with Sys_error _ -> ());
    close_out_noerr oc
  | exception Sys_error _ -> ()

(* VmHWM in kB. *)
let peak_rss_kb () =
  let status = read_file "/proc/self/status" in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
        match String.split_on_char ' ' (String.trim v) with
        | kb :: _ -> Option.value ~default:acc (int_of_string_opt kb)
        | [] -> acc)
      | _ -> acc)
    0
    (String.split_on_char '\n' status)

(* A fixed Prng/Hash64 kernel: its time moves with the machine only, so
   two runs' calibration times separate machine drift from code drift. *)
let calib_ms () =
  let t0 = Clock.now_ns () in
  let rng = Prng.create 0x5EEDL in
  let h = ref (Hash64.init 1L) in
  for _ = 1 to 1_000_000 do
    h := Hash64.add_int64 !h (Prng.next64 rng)
  done;
  ignore (Sys.opaque_identity (Hash64.finish !h));
  float_of_int (Clock.now_ns () - t0) /. 1e6

(* The contention probe: six independent xorshift chains, so it keeps a
   core's execution ports as busy as the simulator does. On a shared
   host another tenant on the same physical core (its SMT sibling)
   slows both by up to 2× together, in phases of seconds to minutes,
   while latency-bound code such as [calib_ms] barely moves. It is the
   benchmark's own code, so changes to the repository cannot move it. *)
let probe_ms () =
  let t0 = Clock.now_ns () in
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 and e = ref 5 and f = ref 6 in
  for _ = 1 to 300_000 do
    a := !a lxor (!a lsl 13);
    b := !b lxor (!b lsl 13);
    c := !c lxor (!c lsl 13);
    d := !d lxor (!d lsl 13);
    e := !e lxor (!e lsl 13);
    f := !f lxor (!f lsl 13);
    a := !a lxor (!a lsr 7);
    b := !b lxor (!b lsr 7);
    c := !c lxor (!c lsr 7);
    d := !d lxor (!d lsr 7);
    e := !e lxor (!e lsr 7);
    f := !f lxor (!f lsr 7);
    a := !a lxor (!a lsl 17);
    b := !b lxor (!b lsl 17);
    c := !c lxor (!c lsl 17);
    d := !d lxor (!d lsl 17);
    e := !e lxor (!e lsl 17);
    f := !f lxor (!f lsl 17)
  done;
  ignore (Sys.opaque_identity (!a + !b + !c + !d + !e + !f));
  float_of_int (Clock.now_ns () - t0) /. 1e6

(* The probe's time on an uncontended core of the reference machine
   (2.1 GHz Xeon, OCaml 5.1). *)
let probe_ref_ms = 2.0

let probes () = List.init 3 (fun _ -> probe_ms ())

(* The time scale of a stretch of work, from the probes taken before
   and after it: the reference probe time over their median. A time read
   in the stretch, times the scale, is about what it would read on an
   uncontended core. *)
let scale probes = probe_ref_ms /. Fba_stdx.Stats.median (Array.of_list probes)

let loadavg () = String.trim (read_file "/proc/loadavg")

(* A shell command's whole output if it exits 0; the child is reaped
   and its stderr discarded. *)
let command cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | ic ->
    let out = try In_channel.input_all ic with Sys_error _ -> "" in
    (match Unix.close_process_in ic with Unix.WEXITED 0 -> Some (String.trim out) | _ -> None)
  | exception Unix.Unix_error _ -> None

let git_commit () = Option.value ~default:"unknown" (command "git rev-parse HEAD")

(* [None] outside a git checkout. *)
let git_dirty () = Option.map (fun out -> out <> "") (command "git status --porcelain")

let nproc () =
  Option.value ~default:0 (Option.bind (command "nproc") int_of_string_opt)
