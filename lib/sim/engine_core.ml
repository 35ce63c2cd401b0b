open Fba_stdx

let validate_adversary_envelope ~who ~n ~(corrupted : Bitset.t) (e : _ Envelope.t) =
  if e.Envelope.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n then
    invalid_arg (who ^ ": adversary envelope out of range");
  if not (Bitset.mem corrupted e.src) then
    invalid_arg (who ^ ": adversary may only send from corrupted identities")

(* Segment granularity: scale with the population so tiny test runs do
   not pay kilowords of arena slack per chain, while sweep-scale runs
   amortize chain bookkeeping over big segments. *)
let seg_cap_for ~n = max 64 (min Batch.Arena.default_seg_cap n)

(* --- Sync mailboxes: three chains over one segment arena.

   [correct] collects the current round's correct sends. At commit they
   are *linked* after the byzantine messages already pushed into
   [staged] (O(1), no copy), and the delivery step drains [staged]
   segment by segment, recycling each into the shared arena the moment
   its last message is handled — so the sends those deliveries trigger
   refill the storage just vacated. Delivery order: byzantine pushes
   first, then the correct chain in send order. [prev] keeps a copy of
   the previous round's correct sends for non-rushing adversaries. --- *)

module Mailbox = struct
  type 'msg t = {
    arena : 'msg Batch.Arena.t;
    correct : 'msg Batch.Chain.t;  (* current round's correct sends *)
    staged : 'msg Batch.Chain.t;  (* next round's deliveries: byz then correct *)
    prev : 'msg Batch.Chain.t;  (* previous round's correct sends (non-rushing) *)
  }

  let create ~n () =
    let arena = Batch.Arena.create ~seg_cap:(seg_cap_for ~n) () in
    {
      arena;
      correct = Batch.Chain.create arena;
      staged = Batch.Chain.create arena;
      prev = Batch.Chain.create arena;
    }

  let push_correct t ~src ~dst msg = Batch.Chain.push t.correct ~src ~dst msg

  let correct_length t = Batch.Chain.length t.correct

  let iter_correct f t = Batch.Chain.iter f t.correct

  (* Adversary observation (lazy; envelopes materialized on demand). *)
  let correct_envelopes t = Batch.Chain.to_envelopes t.correct

  let prev_envelopes t = Batch.Chain.to_envelopes t.prev

  (* Commit step: the round's byzantine messages are pushed first
     (adversary-favorable tie-breaking), then [commit] links the correct
     sends in after them. *)
  let push_staged t ~src ~dst msg = Batch.Chain.push t.staged ~src ~dst msg

  let commit t ~keep_prev =
    if keep_prev then begin
      Batch.Chain.clear t.prev;
      Batch.Chain.iter (fun ~src ~dst msg -> Batch.Chain.push t.prev ~src ~dst msg) t.correct
    end;
    Batch.Chain.transfer t.correct ~into:t.staged

  let pending_any t = not (Batch.Chain.is_empty t.staged)

  let drain t ~f = Batch.Chain.drain t.staged ~f

  (* Epoch reset for instance streams: the chains recycle their
     segments back into the arena free list, so the next run's bursts
     refill storage this one already created. Peak accounting is
     deliberately not reset — the arena high-water is a property of
     the stream, not of one instance. *)
  let reset t =
    Batch.Chain.clear t.correct;
    Batch.Chain.clear t.staged;
    Batch.Chain.clear t.prev

  let peak_words t = Batch.Arena.peak_words t.arena
end

(* --- Async calendar queue: every delay is clamped to [1, width - 1],
   so a message scheduled at time t lands strictly within the next
   [width - 1] steps and a ring of [width] reusable buckets indexed by
   [at mod width] can never alias two distinct due times that are both
   live. Scheduling is a push into a chain — no hashing, no list refs,
   no envelope. The buckets share one arena: draining the due bucket
   recycles its segments while the deliveries schedule into
   strictly-future buckets, which take those same segments from the
   free list — so the ring does not retain every bucket's burst
   high-water. --- *)

module Calendar = struct
  type 'msg t = {
    width : int;
    arena : 'msg Batch.Arena.t;
    buckets : 'msg Batch.Chain.t array;
    mutable pending : int;
  }

  let create ~n ~max_delay () =
    let width = max_delay + 1 in
    let arena = Batch.Arena.create ~seg_cap:(seg_cap_for ~n) () in
    { width; arena; buckets = Array.init width (fun _ -> Batch.Chain.create arena); pending = 0 }

  let schedule t ~at ~src ~dst msg =
    Batch.Chain.push t.buckets.(at mod t.width) ~src ~dst msg;
    t.pending <- t.pending + 1

  let due_count t ~time = Batch.Chain.length t.buckets.(time mod t.width)

  (* Drain the bucket due at [time], in schedule order. Deliveries
     schedule at delay >= 1 < width, so they push into other buckets,
     never the one being drained — the chain-drain precondition. *)
  let drain_due t ~time ~f = Batch.Chain.drain t.buckets.(time mod t.width) ~f

  let pending t = t.pending

  let consumed t k = t.pending <- t.pending - k

  let peak_words t = Batch.Arena.peak_words t.arena
end

(* --- Shared run state: everything both engine loops book-keep
   identically — node states and outputs, metrics, decision tracking,
   the optional event sink, and the instantiated network-condition
   layer. --- *)

module Make (P : Protocol.S) = struct
  type t = {
    n : int;
    config : P.config;
    corrupted : Bitset.t;
    metrics : Metrics.t;
    states : P.state option array;
    outputs : string option array;
    mutable undecided : int;
    events : Events.sink option;
    prof : Prof.t option;
    tags : string array;
    net : Net.t;
  }

  let create ?events ?prof ~net ~config ~n ~seed ~corrupted () =
    P.compile config;
    {
      n;
      config;
      corrupted;
      metrics = Metrics.create ~n ~corrupted;
      states = Array.make n None;
      outputs = Array.make n None;
      undecided = 0;
      events;
      prof;
      tags = (match (events, prof) with None, None -> [||] | _ -> P.msg_tags config);
      net = Net.instantiate net ~n ~seed;
    }

  (* Profiling sites mirror the [events] guards: a run without a
     profiler attached does no extra work in the hot loops. *)
  let prof_start t = match t.prof with None -> () | Some p -> Prof.start p ~tags:t.tags

  let prof_round t ~round =
    match t.prof with None -> () | Some p -> Prof.round p round

  let prof_stop t = match t.prof with None -> () | Some p -> Prof.stop p

  (* Round 0 / time 0: create correct nodes and hand their initial
     sends to the engine's dispatch. *)
  let init_nodes t ~seed ~dispatch =
    for id = 0 to t.n - 1 do
      if not (Bitset.mem t.corrupted id) then begin
        let ctx = Ctx.make ~n:t.n ~id ~seed in
        let state, out = P.init t.config ctx in
        t.states.(id) <- Some state;
        t.undecided <- t.undecided + 1;
        dispatch id out
      end
    done

  let record_send t ~src ~dst msg =
    Metrics.record_send t.metrics ~src ~dst ~bits:(P.msg_bits t.config msg)

  (* Every tracing site is guarded on [events] so a disabled run does
     no extra work (and no allocation) in the hot loops. A message
     event's kind is its handler-tag name, the profiler's slot name. *)
  let kind_of t msg = t.tags.(P.msg_tag t.config msg)

  let trace_round_start t ~round =
    match t.events with
    | None -> ()
    | Some k -> Events.emit k (Events.Round_start { round })

  let trace_msg t ~round ~byzantine ~delay ~src ~dst msg =
    match t.events with
    | None -> ()
    | Some k ->
      let kind = kind_of t msg in
      let bits = P.msg_bits t.config msg in
      if byzantine then Events.emit k (Events.Inject { round; src; dst; kind; bits; delay })
      else Events.emit k (Events.Send { round; src; dst; kind; bits; delay })

  let trace_drop t ~round ~src ~dst msg reason =
    match t.events with
    | None -> ()
    | Some k -> Events.emit k (Events.Drop { round; src; dst; kind = kind_of t msg; reason })

  let check_decision t ~round id =
    if t.outputs.(id) = None then begin
      match t.states.(id) with
      | None -> ()
      | Some st ->
        (match P.output st with
        | Some v ->
          t.outputs.(id) <- Some v;
          Metrics.record_decision t.metrics ~id ~round;
          t.undecided <- t.undecided - 1;
          (match t.events with
          | None -> ()
          | Some k -> Events.emit k (Events.Decide { round; id; value = v }))
        | None -> ())
    end

  let check_decisions t ~round =
    for id = 0 to t.n - 1 do
      check_decision t ~round id
    done

  (* The per-delivery protocol entry point: the allocation-free
     [receive_into] when the protocol provides it, otherwise the
     list-returning [on_receive] drained through [emit] (same order). *)
  let handler_of t ~emit =
    match P.receive_into with
    | Some f -> fun st ~round ~src msg -> f t.config st ~round ~src msg ~emit
    | None ->
      fun st ~round ~src msg ->
        List.iter (fun (d, m) -> emit d m) (P.on_receive t.config st ~round ~src msg)

  (* The shared delivery step: consult the network-condition layer
     (free under [Net.Reliable]), drop messages to Byzantine
     destinations (the adversary already saw them via its observation
     hook), hand the rest to the protocol via [handle]. *)
  let deliver t ~round ~src ~dst msg ~handle =
    match Net.verdict t.net ~round ~src ~dst with
    | Net.Lose reason -> trace_drop t ~round ~src ~dst msg reason
    | Net.Pass -> (
      match t.states.(dst) with
      | None -> trace_drop t ~round ~src ~dst msg "byzantine-dst"
      | Some st ->
        (match t.events with
        | None -> ()
        | Some k ->
          Events.emit k
            (Events.Deliver
               { round; src; dst; kind = kind_of t msg; bits = P.msg_bits t.config msg }));
        (match t.prof with
        | None -> handle dst st ~src msg
        | Some p ->
          Prof.enter p;
          handle dst st ~src msg;
          Prof.leave p ~tag:(P.msg_tag t.config msg)))

  (* Picked once per run. A run nothing watches — no event sink, no
     profiler, a network that loses nothing — hands each message to its
     correct destination's handler directly: [deliver] would do the
     same through three more calls. *)
  let delivery t ~emit ~cur_node ~round =
    let receive = handler_of t ~emit in
    match (t.events, t.prof) with
    | None, None when Net.trivial t.net ->
      let states = t.states in
      fun ~src ~dst msg ->
        (match states.(dst) with
        | None -> ()
        | Some st ->
          cur_node := dst;
          receive st ~round:!round ~src msg)
    | _ ->
      let handle dst st ~src msg =
        cur_node := dst;
        receive st ~round:!round ~src msg
      in
      fun ~src ~dst msg -> deliver t ~round:!round ~src ~dst msg ~handle
end
