(** Signature a protocol must implement to run on the engines.

    A protocol describes only *correct* nodes: Byzantine behaviour is
    produced by an adversary strategy at the engine level, which may
    inject arbitrary messages on behalf of corrupted identities. State
    is expected to be mutable internally; handlers return the messages
    to send. *)

module type S = sig
  type config
  (** Static parameters shared by all nodes (system size, quorum sizes,
      sampler seeds, ...). *)

  type msg
  (** Wire messages. *)

  type state
  (** Per-node mutable state. *)

  val compile : config -> unit
  (** One-time lowering hook, called by the engines once per run before
      the first [init]. Protocols with a static-structure compiler
      (e.g. {!Fba_core.Compiled}) build their dispatch tables here;
      must be idempotent (engines sharing a config may call it more
      than once) and must not change observable behaviour. Protocols
      without a compile step implement it as [fun _ -> ()]. *)

  val init : config -> Ctx.t -> state * (int * msg) list
  (** Create the node and return its round-0 sends as
      [(destination, message)] pairs. *)

  val on_round : config -> state -> round:int -> (int * msg) list
  (** Clock hook, called at the start of every round (synchronous) or
      time step (asynchronous), from round 1 on. *)

  val on_receive : config -> state -> round:int -> src:int -> msg -> (int * msg) list
  (** Deliver one message. [src] is authenticated by the network. *)

  val receive_into :
    (config -> state -> round:int -> src:int -> msg -> emit:(int -> msg -> unit) -> unit)
    option
  (** Optional allocation-free twin of [on_receive]: handle the message
      and hand each send to [emit dst msg] instead of returning a list.
      When present the engines deliver through it (sends must be emitted
      in exactly the order [on_receive] would list them); [None] makes
      the engines fall back to [on_receive]. *)

  val output : state -> string option
  (** The node's decision, once reached. Must be monotone: once
      [Some v], it never changes. *)

  val msg_bits : config -> msg -> int
  (** Size of a message on the wire, in bits, headers included. Used
      for the paper's communication-complexity accounting. *)

  val msg_tags : config -> string array
  (** Message-kind names, indexed by {!msg_tag}: one entry per kind.
      They name the profiler's slots ({!Prof}) and are the [kind] of
      every {!Events} message event, so trace kinds and profiler slots
      agree by construction. Read once per traced or profiled run
      (never on hot paths). *)

  val msg_tag : config -> msg -> int
  (** Dense tag of a message: [0 <= msg_tag c m < Array.length
      (msg_tags c)]. For packed message planes this is the wire tag
      (AER: the {!Fba_core.Compiled} dispatch jump-table index); for
      variant planes, the constructor index. Must be allocation-free —
      the engines call it per traced or profiled message. *)
end
