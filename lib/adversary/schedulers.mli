(** Asynchronous delivery policies.

    The asynchronous adversary's scheduling power is a delay function;
    this is the shape the lifted strategies use. It is deterministic, so
    executions are reproducible, and matches the field-based [delay]
    slot of {!Fba_sim.Async_engine.adversary} — per-message scheduling
    without materializing an envelope. *)

val slow_correct :
  corrupted:Fba_stdx.Bitset.t -> max_delay:int -> time:int -> src:int -> dst:int -> 'msg -> int
(** The classic adversarial schedule: messages between correct nodes
    crawl at [max_delay], everything touching a Byzantine node is
    instant. Combined with injection this gives the adversary a
    [max_delay]-to-1 head start on every race. *)
