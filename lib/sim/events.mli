(** Structured execution events: the engines' trace pipeline.

    The paper's communication bounds are per-phase (Lemmas 3–10 bound
    pushes, polls and the Fw1/Fw2 bursts separately), so whole-run
    {!Metrics} aggregates are too coarse to diagnose a lemma-gauge
    regression. This module defines the typed events the engines
    ({!Sync_engine}, {!Async_engine}) emit — the engines are the only
    emitters — and pluggable consumers: a JSONL writer and {!Tally},
    the one accumulator that folds a traced run into its phase
    timeline, its deliveries per round and kind, and its drops by
    reason.

    A message event's [kind] is the protocol's handler-tag name,
    [(P.msg_tags config).(P.msg_tag config msg)] (see
    {!Protocol.S.msg_tags}): the same table {!Prof} names its slots
    from, so trace kinds and profiler slots agree by construction.

    Tracing is strictly opt-in: engines take an optional [?events]
    sink, and every emission site is guarded so a disabled run performs
    no extra work and no extra allocation (the test suite's exact
    allocation budget for cornering n=128 runs with tracing off and
    must hold). *)

type event =
  | Round_start of { round : int }
      (** Engine clock tick ([round] is the async time step for the
          asynchronous engine). *)
  | Send of { round : int; src : int; dst : int; kind : string; bits : int; delay : int }
      (** A correct node sent a message. [delay] is the delivery delay
          in engine steps (always 1 for the synchronous engine, the
          adversary-chosen clamped delay for the asynchronous one). *)
  | Inject of { round : int; src : int; dst : int; kind : string; bits : int; delay : int }
      (** The adversary sent a message from a corrupted identity. *)
  | Deliver of { round : int; src : int; dst : int; kind : string; bits : int }
      (** A message reached a correct node's handler. *)
  | Drop of { round : int; src : int; dst : int; kind : string; reason : string }
      (** A message was discarded by the engine instead of delivered
          (e.g. the destination is a Byzantine identity with no state
          machine behind it). *)
  | Decide of { round : int; id : int; value : string }
      (** Node [id] fixed its output. *)

(** {1 Sinks}

    A sink fans each event out to its attached consumers, in attach
    order. Consumers are plain [event -> unit] functions, so the JSONL
    writer and the tally below compose freely and callers can attach
    ad-hoc closures. *)

type sink

val create : unit -> sink
(** A sink with no consumers. Emitting into it only costs the
    consumer-list walk (i.e. nothing). *)

val attach : sink -> (event -> unit) -> unit

val emit : sink -> event -> unit

(** {1 JSONL export}

    One JSON object per event, one event per line: machine-readable
    traces for offline analysis. Every object carries an ["ev"]
    discriminator and a ["round"]; the remaining keys depend on the
    event. Strings are escaped so that every line is valid ASCII JSON
    even when values carry arbitrary bytes (gstrings are random). *)

module Jsonl : sig
  val escape : string -> string
  (** JSON string-body escaping: quote, backslash and control
      characters per RFC 8259, plus non-ASCII bytes as [\u00XX] so the
      output never contains invalid UTF-8. *)

  val to_string : event -> string
  (** The event's JSON object, without a trailing newline. *)

  val consumer : Buffer.t -> event -> unit
  (** Appends [to_string event ^ "\n"] to the buffer. *)

  val writer : out_channel -> event -> unit
  (** Writes [to_string event ^ "\n"] to the channel. *)
end

(** {1 Tally}

    One traced run, folded once per event into three views:

    - the phase timeline: the [Metrics] counters split by protocol
      phase. Each [Send], [Inject] and [Deliver] is attributed to the
      phase [classify ~kind] names — for AER,
      {!Fba_core.Aer.phase_of_kind} maps message kinds onto the
      push/poll/fw1/fw2 pipeline. Classification is by message kind
      because phases overlap in time across nodes (every AER node
      pushes {e and} polls from round 0); kind-based attribution keeps
      the invariant that per-phase bits sum exactly to
      [Metrics.total_bits_all]. Each row's [first_round] is the round
      its phase first carried traffic;
    - deliveries per round by message kind: the raw material for the
      phase diagrams one draws of AER executions (pushes, then
      polls/pulls, then the Fw1 burst, then Fw2s and answers);
    - drops by reason, adversary- and net-attributed alike. *)

module Tally : sig
  type t

  type row = {
    phase : string;
    first_round : int;  (** round of the first event attributed to the phase *)
    last_round : int;
    msgs_correct : int;
    msgs_byz : int;
    bits_correct : int;
    bits_byz : int;
    max_sent_bits : int;  (** heaviest correct sender within the phase *)
    max_recv_bits : int;  (** heaviest correct receiver within the phase *)
    max_fanout : int;  (** most messages sent by one correct node in the phase *)
  }

  val create : ?classify:(kind:string -> string) -> n:int -> unit -> t
  (** [classify] defaults to the identity (each message kind is its own
      phase). [n] is the system size, for the per-node maxima. *)

  val consumer : t -> event -> unit
  (** Attach with {!attach}. *)

  val rows : t -> row list
  (** One row per phase, in first-attribution order. *)

  val total_bits : t -> int
  (** Sum of [bits_correct + bits_byz] over all rows — equals
      [Metrics.total_bits_all] of the same run when the tally saw
      every send. *)

  val render_phases : t -> string
  (** Markdown phase timeline: one row per phase with its round span,
      message counts (correct and Byzantine), bits per node (correct
      senders, amortized over the tally's [n]) and worst fan-out, plus
      a stable [total] row. *)

  val render_deliveries : t -> string
  (** A markdown table of [Deliver] events: one row per round up to the
      last delivery, one right-aligned count column per delivered kind
      (sorted), plus a stable trailing [total] row (emitted even when
      nothing was delivered). *)

  val deliveries_csv : t -> string
  (** The same table as {!render_deliveries}, as RFC-4180-ish CSV. *)

  val drops : t -> (string * int) list
  (** [Drop] events counted per reason tag, sorted by reason. *)
end
