(** Synchronous round-based engine (Section 2.1 of the paper): a
    message sent during round [r] is delivered during round [r+1],
    subject to the pluggable {!Net} layer (default [Reliable] — the
    paper's model). *)

open Fba_stdx

type 'msg adversary = {
  corrupted : Bitset.t;
  act : round:int -> observed:(unit -> 'msg Envelope.t list) -> 'msg Envelope.t list;
      (** [observed ()] is the batch of correct-node messages the
          adversary is entitled to have seen when choosing its
          round-[round] messages (current round when rushing, previous
          otherwise); it materializes envelopes from the engine's
          mailbox chains only when called, and the result is valid only for the
          duration of the call. Returned envelopes must have a
          corrupted [src]. *)
}

val null_adversary : corrupted:Bitset.t -> 'msg adversary
(** Corrupted identities that never send. *)

type mode = [ `Rushing | `Non_rushing ]

type 'state result = {
  metrics : Metrics.t;
  outputs : string option array;
  states : 'state option array;  (** [None] for corrupted identities *)
  all_decided : bool;
  rounds_used : int;
}

module Make (P : Protocol.S) : sig
  type nonrec adversary = P.msg adversary

  type nonrec result = P.state result

  type running
  (** An in-flight run, advanced one round per {!step}. *)

  val start :
    ?quiet_limit:int ->
    ?stream:unit ->
    ?mailbox:P.msg Engine_core.Mailbox.t ->
    ?events:Events.sink ->
    ?prof:Prof.t ->
    ?net:Net.spec ->
    config:P.config ->
    n:int ->
    seed:int64 ->
    adversary:adversary ->
    mode:mode ->
    max_rounds:int ->
    unit ->
    running
  (** Open a run: same parameters and semantics as {!run}, which is
      literally [start] + [step] until false + [finish] — a stepped run
      is the same execution, round for round. The stepper exists so an
      instance stream ({!Fba_harness.Service}) can keep several runs
      concurrently open and interleave their rounds. [mailbox] hands
      in a previous run's delivery storage for epoch reuse; it is
      {!Engine_core.Mailbox.reset} in place. [stream] is a [unit] that
      chooses nothing: it once selected the streamed or double-buffered
      mailbox, and the engine now has one delivery plane. The label
      stays so the benchmark's [~stream:config.Runner.stream]
      ([benchmark/instance.ml]) keeps compiling, while a caller asking
      for the old plane ([~stream:false]) does not. *)

  val step : running -> bool
  (** Execute one round; [false] once the run's loop condition has
      failed (nothing left in flight, quiescence, or the round cap) —
      at which point only {!finish} remains. *)

  val finish : running -> result
  (** The run epilogue: close metrics and return the result. Call once,
      after {!step} returns false. *)

  val run :
    ?quiet_limit:int ->
    ?events:Events.sink ->
    ?prof:Prof.t ->
    ?net:Net.spec ->
    config:P.config ->
    n:int ->
    seed:int64 ->
    adversary:adversary ->
    mode:mode ->
    max_rounds:int ->
    unit ->
    result
  (** [quiet_limit] (default 3) is the number of consecutive rounds
      with no traffic after which the engine declares quiescence —
      protocols with longer planned gaps must raise it. [net] defaults
      to [Net.Reliable]; any other condition may drop deliveries
      (attributed through {!Events.Drop} with the {!Net} reason tags).
      [prof], when given, records per-round / per-handler-tag
      wall-clock and allocation into the attached {!Prof.t}; absent,
      the run does no profiling work at all. *)
end
