(** The delivery plane: in-flight messages in fixed-size segments,
    recycled through a per-arena free list.

    The engines' mailboxes and calendar buckets ({!Engine_core}) are
    chains built from one shared arena per run. Draining a chain gives
    each segment back the moment its last message is handled, so the
    sends a delivery triggers refill the storage just vacated and peak
    footprint tracks the largest single round. An enqueue writes two
    words into a reusable segment — zero allocation once warm, and
    fully unboxed when ['msg] is an immediate, as on the packed message
    plane. {!Chain.to_envelopes} materializes real envelopes only when
    an adversary actually asks to observe a chain. *)

(** The segment store: all chains of one engine run share one arena, so
    recycling moves storage between roles (delivery buffer → next
    round's sends) without copying or growth. *)
module Arena : sig
  type 'msg t

  val default_seg_cap : int

  val create : ?seg_cap:int -> unit -> 'msg t
  (** [seg_cap] (default {!default_seg_cap}) is the messages-per-segment
      granularity: smaller wastes less on small runs, larger amortizes
      chain bookkeeping on burst rounds. *)

  val seg_cap : 'msg t -> int

  val free_segments : 'msg t -> int
  (** Segments currently parked on the free list. *)

  val peak_words : 'msg t -> int
  (** 2 × seg_cap × segments-ever-created (segments fuse the (src,
      dst) pair into one word beside the message): the arena never
      frees, so this is both the current footprint and the peak
      concurrent demand across every chain sharing the arena. *)
end

(** A push-ordered message sequence built from arena segments. Chains
    are single-owner: pushing into a chain that is currently being
    {!Chain.drain}ed is forbidden (the engines never do — deliveries
    refill {e other} chains of the same arena). *)
module Chain : sig
  type 'msg t

  val create : 'msg Arena.t -> 'msg t
  (** An empty chain holding no segments. *)

  val length : 'msg t -> int

  val is_empty : 'msg t -> bool

  val push : 'msg t -> src:int -> dst:int -> 'msg -> unit
  (** Append; takes a segment from the arena's free list (or creates
      one) only when the tail segment is full. [src] and [dst] must be
      in [\[0, 2^31)] (they share one fused word — node ids are bounded
      far below this by the packed plane's n = 2^18 ceiling); raises
      [Invalid_argument] otherwise. *)

  val clear : 'msg t -> unit
  (** Recycle every segment back to the arena. *)

  val transfer : 'msg t -> into:'msg t -> unit
  (** Detach [t]'s whole segment chain onto [into]'s tail: O(1) pointer
      moves, no copying. [t] is empty afterwards. No-op when [t] and
      [into] are the same chain or [t] is empty. *)

  val iter : (src:int -> dst:int -> 'msg -> unit) -> 'msg t -> unit
  (** Non-destructive visit in push order. *)

  val drain : 'msg t -> f:(src:int -> dst:int -> 'msg -> unit) -> unit
  (** Visit every message in push order, recycling each segment the
      moment its last message is handed to [f] — deliver-as-you-go.
      The chain is empty afterwards. [f] may push into other chains of
      the same arena (that is the point); pushing into the drained
      chain itself is forbidden. *)

  val to_envelopes : 'msg t -> 'msg Envelope.t list
  (** Materialize, in push order — the adversary-observation path. *)
end

(** Process-wide peak-mailbox-words gauge: engines {!Peak.note} each
    run's peak at run end, and the benchmark brackets each rep with
    {!Peak.reset}/{!Peak.get}. Atomic — runs finish on arbitrary
    domains. *)
module Peak : sig
  val reset : unit -> unit

  val note : int -> unit
  (** Raise the gauge to [max current w]. *)

  val get : unit -> int
end
