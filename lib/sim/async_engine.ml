(** Asynchronous engine: the adversary schedules deliveries.

    The network is asynchronous but — by default — reliable
    (Section 2.1): every message sent to a correct node is eventually
    delivered, with the adversary choosing the order. We use the
    standard normalization: the adversary assigns each message an
    integer delay in [\[1, max_delay\]]; dividing the completion time by
    [max_delay] gives the asynchronous round count that Lemma 6 and
    Lemma 10 refer to. The adversary has full information (its
    [observe] hook sees every send, field by field, at the moment it
    happens — strictly stronger than rushing) and may inject messages
    from corrupted identities at any time step.

    The [?net] network-condition layer ({!Net}) defaults to [Reliable]
    (the paper's model, bit-identical to the goldens); off-model runs
    may lose deliveries (i.i.d. loss, transient partitions). Shared
    bookkeeping (calendar queue, adversary validation, metrics,
    decisions, tracing) lives in {!Engine_core}. *)

open Fba_stdx

type 'msg adversary = {
  corrupted : Bitset.t;
  max_delay : int;
  delay : time:int -> src:int -> dst:int -> 'msg -> int;
  observe : time:int -> src:int -> dst:int -> 'msg -> unit;
  inject : time:int -> ('msg Envelope.t * int) list;
}

let null_adversary ~corrupted =
  {
    corrupted;
    max_delay = 1;
    delay = (fun ~time:_ ~src:_ ~dst:_ _ -> 1);
    observe = (fun ~time:_ ~src:_ ~dst:_ _ -> ());
    inject = (fun ~time:_ -> []);
  }

type 'state result = {
  metrics : Metrics.t;
  outputs : string option array;
  states : 'state option array;
  all_decided : bool;
  time_used : int;
  normalized_rounds : float;  (** time divided by [max_delay] *)
}

module Make (P : Protocol.S) = struct
  module Core = Engine_core.Make (P)

  type nonrec adversary = P.msg adversary

  type nonrec result = P.state result

  (* Quiet steps (no sends, no deliveries) with nothing in flight
     before the run stops. *)
  let quiet_limit = 6

  (* [stream] chooses nothing — there is one calendar plane; the unit
     label stays only for callers written against the old signature. *)
  let run ?stream:(_ : unit option) ?events ?prof ?(net = Net.Reliable) ~(config : P.config) ~n
      ~seed ~(adversary : adversary) ~max_time () =
    if adversary.max_delay < 1 then invalid_arg "Async_engine: max_delay < 1";
    let corrupted = adversary.corrupted in
    let core = Core.create ?events ?prof ~net ~config ~n ~seed ~corrupted () in
    Core.prof_start core;
    let cal : P.msg Engine_core.Calendar.t =
      Engine_core.Calendar.create ~n ~max_delay:adversary.max_delay ()
    in
    let clamp_delay d = Intx.clamp ~lo:1 ~hi:adversary.max_delay d in
    (* Activity counters for quiescence detection. *)
    let sends_this_step = ref 0 in
    let delivered_this_step = ref 0 in
    let time = ref 0 in
    let cur_node = ref 0 in
    let metrics = core.metrics in
    (* Send one message from correct node [!cur_node] at [!time]: the
       adversary observes it and chooses its delay. One shared closure
       — the delivery loop allocates nothing per message. *)
    let emit dst msg =
      if dst < 0 || dst >= n then invalid_arg "Async_engine: destination out of range";
      incr sends_this_step;
      let t = !time and src = !cur_node in
      Metrics.record_send metrics ~src ~dst ~bits:(P.msg_bits config msg);
      adversary.observe ~time:t ~src ~dst msg;
      let d = clamp_delay (adversary.delay ~time:t ~src ~dst msg) in
      Core.trace_msg core ~round:t ~byzantine:false ~delay:d ~src ~dst msg;
      Engine_core.Calendar.schedule cal ~at:(t + d) ~src ~dst msg
    in
    let deliver = Core.delivery core ~emit ~cur_node ~round:time in
    let emit_pair (dst, msg) = emit dst msg in
    let dispatch_correct src out =
      cur_node := src;
      List.iter emit_pair out
    in
    let dispatch_byzantine ~time pairs =
      List.iter
        (fun ((e : P.msg Envelope.t), d) ->
          Engine_core.validate_adversary_envelope ~who:"Async_engine" ~n ~corrupted e;
          Core.record_send core ~src:e.src ~dst:e.dst e.msg;
          let d = clamp_delay d in
          Core.trace_msg core ~round:time ~byzantine:true ~delay:d ~src:e.src ~dst:e.dst e.msg;
          Engine_core.Calendar.schedule cal ~at:(time + d) ~src:e.src ~dst:e.dst e.msg)
        pairs
    in
    (* Time 0: initialization. *)
    Core.trace_round_start core ~round:0;
    Core.init_nodes core ~seed ~dispatch:dispatch_correct;
    dispatch_byzantine ~time:0 (adversary.inject ~time:0);
    Core.check_decisions core ~round:0;
    (* Round-driven protocols (committee trees, phase king, re-polling)
       can have steps with nothing in flight while a timer is pending,
       so we only stop after [quiet_limit] consecutive steps with no
       deliveries and no sends. *)
    let quiet = ref 0 in
    let continue = ref (core.undecided > 0 && Engine_core.Calendar.pending cal > 0) in
    while !continue && !time < max_time do
      incr time;
      let t = !time in
      Core.trace_round_start core ~round:t;
      Core.prof_round core ~round:t;
      sends_this_step := 0;
      delivered_this_step := 0;
      (* Clock hook for correct nodes. *)
      for id = 0 to n - 1 do
        match core.states.(id) with
        | None -> ()
        | Some st -> dispatch_correct id (P.on_round config st ~round:t)
      done;
      (* Deliver everything scheduled for t, in schedule order. Sends
         triggered by these deliveries carry delay >= 1 < width, so they
         land in other buckets, never the one being drained — so they
         take the very segments the drain is recycling. *)
      let due = Engine_core.Calendar.due_count cal ~time:t in
      if due > 0 then begin
        Engine_core.Calendar.consumed cal due;
        delivered_this_step := !delivered_this_step + due;
        Engine_core.Calendar.drain_due cal ~time:t ~f:deliver
      end;
      dispatch_byzantine ~time:t (adversary.inject ~time:t);
      Core.check_decisions core ~round:t;
      if !sends_this_step = 0 && !delivered_this_step = 0 then incr quiet else quiet := 0;
      continue :=
        core.undecided > 0 && (Engine_core.Calendar.pending cal > 0 || !quiet < quiet_limit)
    done;
    Core.prof_stop core;
    Metrics.set_rounds core.metrics !time;
    let peak = Engine_core.Calendar.peak_words cal in
    Metrics.set_peak_mailbox_words core.metrics peak;
    Batch.Peak.note peak;
    {
      metrics = core.metrics;
      outputs = core.outputs;
      states = core.states;
      all_decided = core.undecided = 0;
      time_used = !time;
      normalized_rounds = float_of_int !time /. float_of_int adversary.max_delay;
    }
end
