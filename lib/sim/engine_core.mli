(** Shared core of the two engines.

    {!Sync_engine} and {!Async_engine} used to be near-duplicate loops;
    everything they book-keep identically lives here instead — the
    validation of adversary envelopes, the reusable mailbox /
    calendar-queue storage ({!Batch} chains, so the steady-state engines
    allocate nothing per message), and a per-run state ({!Make.t})
    carrying node states, metrics, decision tracking, the optional
    {!Events} sink and the instantiated {!Net} layer. The engines keep
    only what genuinely differs: the synchronous round structure vs the
    adversary-scheduled calendar. *)

open Fba_stdx

(** {1 Adversary validation} *)

val validate_adversary_envelope :
  who:string -> n:int -> corrupted:Bitset.t -> 'msg Envelope.t -> unit
(** Raises [Invalid_argument] (prefixed with [who]) if the envelope is
    out of range or its source is not corrupted. *)

(** {1 Reusable delivery storage}

    Both structures are chains over one {!Batch.Arena} per run: each
    segment is recycled as it is drained, so peak footprint tracks the
    largest single round instead of retaining every burst for the whole
    run. *)

(** Synchronous mailboxes. The round schedule: correct sends are pushed
    via [push_correct]; the commit step pushes the round's byzantine
    messages ([push_staged]) and then links the correct sends in after
    them ([commit]); the next round's delivery step is [drain]. *)
module Mailbox : sig
  type 'msg t

  val create : n:int -> unit -> 'msg t
  (** Empty mailboxes whose arena segment size scales with [n]. *)

  val push_correct : 'msg t -> src:int -> dst:int -> 'msg -> unit
  (** Record one correct send of the current round. *)

  val correct_length : 'msg t -> int

  val iter_correct : (src:int -> dst:int -> 'msg -> unit) -> 'msg t -> unit
  (** Visit the current round's correct sends in send order. *)

  val correct_envelopes : 'msg t -> 'msg Envelope.t list
  (** Materialize the current round's correct sends (the rushing
      adversary's observation window). *)

  val prev_envelopes : 'msg t -> 'msg Envelope.t list
  (** Materialize the previous round's correct sends (the non-rushing
      observation window; maintained only when [commit ~keep_prev]). *)

  val push_staged : 'msg t -> src:int -> dst:int -> 'msg -> unit
  (** Stage one byzantine message for delivery next round (before
      [commit], so byzantine messages deliver first). *)

  val commit : 'msg t -> keep_prev:bool -> unit
  (** Link the round's correct sends into the staged schedule after the
      byzantine ones (O(1), no copy), and copy them into the
      previous-round window when [keep_prev]. *)

  val pending_any : 'msg t -> bool
  (** Is anything staged for delivery (the quiescence check)? *)

  val drain : 'msg t -> f:(src:int -> dst:int -> 'msg -> unit) -> unit
  (** Deliver everything staged, in order (byzantine first, then correct
      sends in send order), recycling each segment the moment its last
      message is handed to [f]. [f] may push correct sends. *)

  val reset : 'msg t -> unit
  (** Epoch reset for instance streams: empty every chain in place,
      recycling the segments into the arena free list. Peak accounting
      survives (the arena high-water belongs to the stream, not one
      instance). *)

  val peak_words : 'msg t -> int
  (** Peak delivery-plane footprint of the run so far, in words. *)
end

(** Asynchronous calendar queue: a ring of [max_delay + 1] reusable
    buckets indexed by [due mod width]. Delays clamped to
    [\[1, max_delay\]] can never alias two live due times. The buckets
    are chains over one shared arena, so draining the due bucket
    recycles segments that future buckets then reuse. *)
module Calendar : sig
  type 'msg t

  val create : n:int -> max_delay:int -> unit -> 'msg t

  val schedule : 'msg t -> at:int -> src:int -> dst:int -> 'msg -> unit

  val due_count : 'msg t -> time:int -> int
  (** Messages due at [time]. *)

  val drain_due : 'msg t -> time:int -> f:(src:int -> dst:int -> 'msg -> unit) -> unit
  (** Deliver (and clear) the bucket due at [time], in schedule order.
      [f] may schedule — delays are >= 1, so never into the bucket being
      drained. *)

  val pending : 'msg t -> int
  (** Scheduled but not yet consumed. *)

  val consumed : 'msg t -> int -> unit
  (** Deduct [k] drained messages from [pending]. *)

  val peak_words : 'msg t -> int
  (** Peak calendar footprint of the run so far, in words. *)
end

(** {1 Per-run shared state} *)

module Make (P : Protocol.S) : sig
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
        (** [P.msg_tags config], read once when [events] or [prof] is
            attached ([[||]] otherwise): the profiler's slot names and
            the [kind] of every message event *)
    net : Net.t;
  }

  val create :
    ?events:Events.sink ->
    ?prof:Prof.t ->
    net:Net.spec ->
    config:P.config ->
    n:int ->
    seed:int64 ->
    corrupted:Bitset.t ->
    unit ->
    t
  (** Fresh run state; instantiates [net] from [seed]. *)

  val prof_start : t -> unit
  (** When a profiler is attached, (re)arm it with [tags] and take the
      opening snapshot; free otherwise. Call once, before
      {!init_nodes}. *)

  val prof_round : t -> round:int -> unit
  (** Close the profiler's current round and open [round]; free when no
      profiler is attached. Call beside {!trace_round_start}. *)

  val prof_stop : t -> unit
  (** Take the closing snapshot so totals become available; free when
      no profiler is attached. *)

  val init_nodes : t -> seed:int64 -> dispatch:(int -> (int * P.msg) list -> unit) -> unit
  (** Create every correct node ([P.init]) and pass its initial sends
      to [dispatch]. *)

  val record_send : t -> src:int -> dst:int -> P.msg -> unit

  val trace_round_start : t -> round:int -> unit

  val trace_msg :
    t -> round:int -> byzantine:bool -> delay:int -> src:int -> dst:int -> P.msg -> unit
  (** Emits [Send] (correct) or [Inject] (byzantine) when a sink is
      attached; free otherwise. Message events carry
      [kind = tags.(P.msg_tag config msg)]. *)

  val check_decisions : t -> round:int -> unit

  val delivery :
    t ->
    emit:(int -> P.msg -> unit) ->
    cur_node:int ref ->
    round:int ref ->
    src:int ->
    dst:int ->
    P.msg ->
    unit
  (** The function a run drains its mailbox or calendar through. Build
      it once per run: it captures [emit], the engine's send. Each
      message to a correct node sets [cur_node] to its destination and
      reaches the protocol ([P.receive_into] when the protocol provides
      it, otherwise [P.on_receive] drained through [emit] in list
      order) at the round read from [round]. A run with no [events], no
      [prof] and a {!Net.trivial} network does only that. Any other
      first asks {!Net.verdict}, drops messages to Byzantine
      destinations, and traces and profiles each delivery; network
      losses are traced through {!Events.Drop} with the {!Net} reason
      tags. *)
end
