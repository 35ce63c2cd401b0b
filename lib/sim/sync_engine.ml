(** Synchronous round-based engine (Section 2.1 of the paper): a
    message sent during round [r] is delivered during round [r+1].

    The adversary is a closure invoked once per round. In [`Rushing]
    mode it sees the messages correct nodes send in the *current* round
    before choosing its own (the paper's rushing adversary); in
    [`Non_rushing] mode it only sees the previous round's messages. In
    both modes it has full information: every message ever sent is
    eventually reachable through [act]'s [observed] thunk (which
    materializes envelopes from the engine's mailbox chains only when
    called — an adversary that never looks costs nothing per round).

    Delivery itself is pluggable: the [?net] network-condition layer
    ({!Net}) defaults to [Reliable] — the paper's model, bit-identical
    to the goldens — and may drop deliveries (i.i.d. loss, transient
    partitions) for off-model robustness runs.
    Shared bookkeeping (mailboxes, adversary validation, metrics,
    decisions, tracing) lives in {!Engine_core}. *)

open Fba_stdx

type 'msg adversary = {
  corrupted : Bitset.t;
  act : round:int -> observed:(unit -> 'msg Envelope.t list) -> 'msg Envelope.t list;
}

let null_adversary ~corrupted = { corrupted; act = (fun ~round:_ ~observed:_ -> []) }

type mode = [ `Rushing | `Non_rushing ]

type 'state result = {
  metrics : Metrics.t;
  outputs : string option array;
  states : 'state option array;  (** [None] for corrupted identities *)
  all_decided : bool;
  rounds_used : int;
}

module Make (P : Protocol.S) = struct
  module Core = Engine_core.Make (P)

  type nonrec adversary = P.msg adversary

  type nonrec result = P.state result

  (* An in-flight run, advanced one round at a time. [step] executes
     one iteration of the historical round loop (false once the loop
     condition fails); [finish] is its epilogue. [run] below is
     literally start-step*-finish, so a stepped run is the same
     execution — the stepper exists so an instance stream
     ({!Fba_harness.Service}) can keep several runs concurrently open
     and interleave their rounds. *)
  type running = { r_step : unit -> bool; r_finish : unit -> result }

  (* [stream] chooses nothing — there is one delivery plane; the unit
     label stays only for callers written against the old signature. *)
  let start ?(quiet_limit = 3) ?stream:(_ : unit option) ?mailbox ?events ?prof
      ?(net = Net.Reliable) ~(config : P.config) ~n ~seed ~(adversary : adversary)
      ~(mode : mode) ~max_rounds () =
    if quiet_limit < 1 then invalid_arg "Sync_engine.run: quiet_limit < 1";
    let corrupted = adversary.corrupted in
    let core = Core.create ?events ?prof ~net ~config ~n ~seed ~corrupted () in
    Core.prof_start core;
    let mb : P.msg Engine_core.Mailbox.t =
      match mailbox with
      | Some mb ->
        Engine_core.Mailbox.reset mb;
        mb
      | None -> Engine_core.Mailbox.create ~n ()
    in
    (* Every correct send is booked as it is pushed, as the async
       engine does; the metrics are sums, so the order is immaterial. *)
    let metrics = core.metrics in
    let send src dst msg =
      if dst < 0 || dst >= n then invalid_arg "Sync_engine: destination out of range";
      Metrics.record_send metrics ~src ~dst ~bits:(P.msg_bits config msg);
      Engine_core.Mailbox.push_correct mb ~src ~dst msg
    in
    (* All closures the delivery path needs are built once, reading the
       current round/sender through refs, so the loops allocate no
       per-message (or per-node) closures. *)
    let cur_round = ref 0 in
    let cur_node = ref 0 in
    let emit dst msg = send !cur_node dst msg in
    let deliver = Core.delivery core ~emit ~cur_node ~round:cur_round in
    let send_pair (dst, msg) = send !cur_node dst msg in
    let observed =
      match mode with
      | `Rushing -> fun () -> Engine_core.Mailbox.correct_envelopes mb
      | `Non_rushing -> fun () -> Engine_core.Mailbox.prev_envelopes mb
    in
    let keep_window = mode = `Non_rushing in
    Core.trace_round_start core ~round:0;
    (* Round 0: initialize correct nodes. *)
    Core.init_nodes core ~seed ~dispatch:(fun id out ->
        cur_node := id;
        List.iter send_pair out);
    Core.check_decisions core ~round:0;
    let commit_round ~round =
      let correct_count = Engine_core.Mailbox.correct_length mb in
      (* Ask the adversary for its round-[round] messages; [observed]
         materializes envelopes only if the strategy actually looks. *)
      let byz = adversary.act ~round ~observed in
      List.iter (Engine_core.validate_adversary_envelope ~who:"Sync_engine" ~n ~corrupted) byz;
      (* Byzantine messages are delivered before correct ones next
         round: adversary-favorable tie-breaking, so races (e.g. the
         overload filter of Algorithm 3) resolve for the worst case. *)
      List.iter
        (fun (e : P.msg Envelope.t) ->
          Core.record_send core ~src:e.src ~dst:e.dst e.msg;
          Core.trace_msg core ~round ~byzantine:true ~delay:1 ~src:e.src ~dst:e.dst e.msg;
          Engine_core.Mailbox.push_staged mb ~src:e.src ~dst:e.dst e.msg)
        byz;
      (match events with
      | None -> ()
      | Some _ ->
        Engine_core.Mailbox.iter_correct
          (fun ~src ~dst msg ->
            Core.trace_msg core ~round ~byzantine:false ~delay:1 ~src ~dst msg)
          mb);
      Engine_core.Mailbox.commit mb;
      correct_count
    in
    let prev_correct = ref (commit_round ~round:0) in
    let round = ref 0 in
    (* Quiescence: some protocols (committee trees, phase king,
       re-polling AER) have planned gaps with nothing in flight, so we
       only stop after [quiet_limit] consecutive rounds with no traffic
       at all. Protocols with round timers longer than the default must
       raise it. *)
    let quiet = ref 0 in
    let last_active = ref 0 in
    (* Main loop: rounds 1 .. max_rounds, one iteration per [step]. *)
    let continue = ref (core.undecided > 0 || Engine_core.Mailbox.pending_any mb) in
    let step () =
      if not (!continue && !round < max_rounds) then false
      else begin
        incr round;
        let r = !round in
        cur_round := r;
        Core.trace_round_start core ~round:r;
        Core.prof_round core ~round:r;
        (* Clock hook. *)
        for id = 0 to n - 1 do
          match core.states.(id) with
          | None -> ()
          | Some st ->
            cur_node := id;
            List.iter send_pair (P.on_round config st ~round:r)
        done;
        (* Deliver last round's messages. The drain recycles each segment
           as its last message is handled, so [send]'s pushes refill the
           storage the deliveries just vacated; a non-rushing run keeps
           the correct chain instead, as the adversary's next window. *)
        let delivered_any = Engine_core.Mailbox.pending_any mb in
        Engine_core.Mailbox.drain mb ~keep_window ~f:deliver;
        Core.check_decisions core ~round:r;
        prev_correct := commit_round ~round:r;
        if (not delivered_any) && not (Engine_core.Mailbox.pending_any mb) then incr quiet
        else begin
          quiet := 0;
          last_active := r
        end;
        continue :=
          (core.undecided > 0 || Engine_core.Mailbox.pending_any mb || !prev_correct > 0)
          && !quiet < quiet_limit;
        true
      end
    in
    let finish () =
      let rounds_used = if !quiet > 0 then !last_active else !round in
      Core.prof_stop core;
      Metrics.set_rounds core.metrics rounds_used;
      let peak = Engine_core.Mailbox.peak_words mb in
      Metrics.set_peak_mailbox_words core.metrics peak;
      Batch.Peak.note peak;
      {
        metrics = core.metrics;
        outputs = core.outputs;
        states = core.states;
        all_decided = core.undecided = 0;
        rounds_used;
      }
    in
    { r_step = step; r_finish = finish }

  let step r = r.r_step ()

  let finish r = r.r_finish ()

  let run ?quiet_limit ?events ?prof ?net ~(config : P.config) ~n ~seed
      ~(adversary : adversary) ~(mode : mode) ~max_rounds () =
    let r =
      start ?quiet_limit ?events ?prof ?net ~config ~n ~seed ~adversary ~mode ~max_rounds ()
    in
    while r.r_step () do
      ()
    done;
    r.r_finish ()
end
