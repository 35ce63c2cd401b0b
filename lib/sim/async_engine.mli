(** Asynchronous engine: the adversary schedules deliveries within a
    [max_delay] bound; dividing completion time by [max_delay] gives
    the normalized asynchronous round count of Lemmas 6 and 10. The
    pluggable {!Net} layer (default [Reliable]) may additionally lose
    deliveries. *)

open Fba_stdx

type 'msg adversary = {
  corrupted : Bitset.t;
  max_delay : int;  (** upper bound the engine enforces on [delay] *)
  delay : time:int -> src:int -> dst:int -> 'msg -> int;
      (** delivery delay for a correct node's message, clamped to
          [\[1, max_delay\]] *)
  observe : time:int -> src:int -> dst:int -> 'msg -> unit;
      (** full-information hook: called for every message a correct
          node sends, at the moment it is sent, in send order *)
  inject : time:int -> ('msg Envelope.t * int) list;
      (** messages from corrupted identities, each with its own delay *)
}

val null_adversary : corrupted:Bitset.t -> 'msg adversary
(** Instant delivery ([max_delay = 1]), no observation, no
    injections. *)

type 'state result = {
  metrics : Metrics.t;
  outputs : string option array;
  states : 'state option array;
  all_decided : bool;
  time_used : int;
  normalized_rounds : float;  (** time divided by [max_delay] *)
}

module Make (P : Protocol.S) : sig
  type nonrec adversary = P.msg adversary

  type nonrec result = P.state result

  val run :
    ?stream:unit ->
    ?events:Events.sink ->
    ?prof:Prof.t ->
    ?net:Net.spec ->
    config:P.config ->
    n:int ->
    seed:int64 ->
    adversary:adversary ->
    max_time:int ->
    unit ->
    result
  (** The run stops once no node is undecided, or once nothing is in
      flight and 6 consecutive steps had no sends and no deliveries, or
      at [max_time]. [stream] is a [unit] that chooses nothing: it
      once selected the streamed or flat-lane calendar ring, and the
      engine now has one. The label stays so the benchmark's
      [~stream:config.Runner.stream] ([benchmark/instance.ml]) keeps
      compiling, while a caller asking for the old ring
      ([~stream:false]) does not. [net] defaults to [Net.Reliable];
      losses are attributed through {!Events.Drop} with the {!Net}
      reason tags.
      [prof], when given, records per-step / per-handler-tag wall-clock
      and allocation into the attached {!Prof.t}; absent, the run does
      no profiling work at all. *)
end
