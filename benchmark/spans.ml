(* In-memory span tracer for the traced rep.

   Spans form one tree per instance. [span_each] opens a distinct span
   per call (the instance root, one per engine round); [enter]/[span]
   find-or-create a child of the current span by name, so repeated
   calls — one per delivery, one per node — aggregate into a single
   span holding the call count and the summed nanoseconds. A span's
   self time is its summed duration minus its children's, so self
   times sum, in integer nanoseconds, to the root's duration; because
   every child call lies inside one call of its parent, none is
   negative ([check_root]).

   The tracer is a process-wide singleton because the protocol hooks it
   wraps ({!Timed}) must keep the {!Fba_sim.Protocol.S} signature. While
   [stop]ped every entry point is a no-op. *)

type node = {
  id : int;
  name : string;
  parent : int;  (** -1 for an instance root *)
  inst : int;
  mutable start_ns : int;  (** start of the first call *)
  mutable end_ns : int;  (** end of the last call *)
  mutable count : int;
  mutable ns : int;  (** summed duration of every call *)
  mutable kids : node list;  (** newest first *)
}

let on = ref false
let next_id = ref 0
let cur_inst = ref 0
let max_depth = 64

let dummy =
  { id = -1; name = ""; parent = -1; inst = -1; start_ns = 0; end_ns = 0; count = 0; ns = 0;
    kids = [] }

let stack = Array.make max_depth dummy
let t0s = Array.make max_depth 0
let depth = ref 0
let roots : node list ref = ref []  (* finished instance roots, newest first *)

let make name ~parent ~inst =
  let id = !next_id in
  incr next_id;
  { id; name; parent; inst; start_ns = 0; end_ns = 0; count = 0; ns = 0; kids = [] }

(* Begin recording into an empty trace. *)
let start () =
  on := true;
  next_id := 0;
  depth := 0;
  roots := []

let stop () = on := false

let push node =
  if !depth >= max_depth then failwith "Spans: nesting too deep";
  let t = Clock.now_ns () in
  if node.count = 0 then node.start_ns <- t;
  stack.(!depth) <- node;
  t0s.(!depth) <- t;
  incr depth

let child_named parent name =
  let rec find = function
    | [] ->
      let c = make name ~parent:parent.id ~inst:!cur_inst in
      parent.kids <- c :: parent.kids;
      c
    | k :: rest -> if k.name == name || String.equal k.name name then k else find rest
  in
  find parent.kids

let enter name = if !on && !depth > 0 then push (child_named stack.(!depth - 1) name)

let leave () =
  if !on && !depth > 0 then begin
    let t = Clock.now_ns () in
    decr depth;
    let nd = stack.(!depth) in
    nd.ns <- nd.ns + (t - t0s.(!depth));
    nd.count <- nd.count + 1;
    nd.end_ns <- t;
    if !depth = 0 then roots := nd :: !roots
  end

(* A fresh span for this call; at depth 0 it is a new instance root. *)
let enter_each name =
  if !on then begin
    if !depth = 0 then push (make name ~parent:(-1) ~inst:!cur_inst)
    else begin
      let parent = stack.(!depth - 1) in
      let c = make name ~parent:parent.id ~inst:!cur_inst in
      parent.kids <- c :: parent.kids;
      push c
    end
  end

let span name f =
  if not !on then f ()
  else begin
    enter name;
    let r = f () in
    leave ();
    r
  end

let span_each name f =
  if not !on then f ()
  else begin
    enter_each name;
    let r = f () in
    leave ();
    r
  end

(* [f] under a root span tagged with instance id [inst]. *)
let root ~inst name f =
  cur_inst := inst;
  span_each name f

(* Drop half-open spans after an exception escaped a traced call. *)
let abort () = depth := 0

(* Finished roots, oldest first. *)
let instances () = List.rev !roots

let self_ns nd = List.fold_left (fun acc k -> acc - k.ns) nd.ns nd.kids

let rec iter f nd =
  f nd;
  List.iter (iter f) (List.rev nd.kids)

(* Self times sum to the root's duration for any tree: each non-root
   span's duration is counted once as its own and subtracted once from
   its parent's. What can fail is nesting — a child that outlasts its
   parent leaves the parent a negative self time. *)
let check_root root =
  let ok = ref true in
  iter (fun nd -> if self_ns nd < 0 then ok := false) root;
  !ok

(* Per span name over [roots]: (calls, summed ns, summed self ns). *)
let totals roots =
  let tbl = Hashtbl.create 32 in
  List.iter
    (iter (fun nd ->
         let c, ns, self = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl nd.name) in
         Hashtbl.replace tbl nd.name (c + nd.count, ns + nd.ns, self + self_ns nd)))
    roots;
  tbl

(* One JSON object per span, roots in order, each tree depth-first. *)
let write_jsonl oc ~workload ~rep roots =
  List.iter
    (iter (fun nd ->
         Printf.fprintf oc
           "{\"workload\":%S,\"rep\":%d,\"inst\":%d,\"id\":%d,\"parent\":%d,\"name\":%S,\
            \"start\":%d,\"end\":%d,\"count\":%d,\"ns\":%d,\"self_ns\":%d}\n"
           workload rep nd.inst nd.id nd.parent nd.name nd.start_ns nd.end_ns nd.count nd.ns
           (self_ns nd)))
    roots
