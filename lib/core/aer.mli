(** AER — the paper's almost-everywhere to everywhere agreement
    protocol (Section 3).

    Each correct node starts with a candidate string; more than half of
    all nodes are correct and hold the common gstring. The protocol has
    two phases:

    - {b Push} (Section 3.1.1): every node diffuses its initial
      candidate to the nodes whose push quorum it belongs to; a node
      accepts a string into its candidate list L_x only when a strict
      majority of the push quorum I(s, x) vouches for it.
    - {b Pull} (Section 3.1.2, Algorithms 1–3): for each candidate, the
      node polls a random poll list J(x, r) through the filtered
      forwarding chain H(s, x) → H(s, w) → w, and decides on the first
      candidate confirmed by a majority of its poll list.

    The module satisfies {!Fba_sim.Protocol.S}, so it runs unchanged on
    the synchronous engine (rushing or not) and the asynchronous one.

    One implementation deviation from the paper's pseudo-code is
    recorded in DESIGN.md (substitution 6): messages whose string does
    not match the receiver's current belief are buffered and replayed
    when the belief changes (upon decision), rather than dropped. Under
    asynchrony the two are equivalent (the scheduler could simply have
    delayed those messages); under a synchronous schedule the literal
    reading can starve late deciders. *)

type config

val config_of_scenario :
  ?strict_drop:bool ->
  ?compile:unit ->
  Scenario.t ->
  config
(** The setup every node of one execution shares (samplers, memoized
    quorums, initial candidate assignment) and the execution's scratch.
    The same value must be used for every node of an execution —
    quorum caches inside are shared deliberately. A config belongs to
    that one execution: its quorum caches, its compiled tables and the
    Fw1 burst's scratch lanes are mutable and unsynchronized, so it
    must not serve two executions at once, nor executions on different
    domains.
    [strict_drop] (default false) applies the paper's pseudo-code
    literally, dropping belief-mismatched messages instead of buffering
    them (DESIGN.md substitution 6) — exposed for the ablation that
    shows why we buffer. The config carries no event sink: the engines
    are the only observers of a run (their [?events] and [?prof]).
    [compile] is a [unit] that chooses nothing: it once switched
    between the compiled tables ({!Compiled}) and a tag-comparison
    dispatch that ran byte-identically, and only the compiled path
    remains. The label
    stays because the benchmark ([benchmark/instance.ml]) passes
    [~compile:config.Runner.compile]; a caller asking for the old path
    ([~compile:false]) fails to compile. Every run builds its config
    here, instance streams ({!Fba_harness.Service}) included: the
    caches and tables are fresh per run. *)

val config_scenario : config -> Scenario.t

val config_compiled : config -> Compiled.t option
(** The lowered run structure, once built ([None] before). The engines
    build it through {!Fba_sim.Protocol.S.compile} before the first
    [init]; [init] and [msg_bits] build it on first use when no engine
    did, so every node runs on the same tables either way. *)

include Fba_sim.Protocol.S with type config := config and type msg = Msg.Packed.t
(** Messages are packed immediates ({!Msg.Packed}): handlers run
    entirely on int words and emit through [receive_into] without
    allocating. [on_receive] remains as a list-returning shim over the
    same handlers. [msg_bits] is {!Compiled.bits}, AER's one wire-size
    rule. *)

val phase_of_kind : string -> string
(** Map a message kind (a {!msg_tags} name) onto the protocol phase it
    belongs to:
    Push ↦ "push"; Poll, Pull and Answer ↦ "poll" (the Algorithm 1
    poll round-trip); Fw1 ↦ "fw1"; Fw2 ↦ "fw2"
    (the Algorithm 2/3 forwarding bursts). Unknown kinds map to
    themselves. The classifier for {!Fba_sim.Events.Tally}: because
    every message belongs to exactly one phase, per-phase bits sum to
    [Metrics.total_bits_all]. *)

(** {2 State inspection (experiments and tests)} *)

val candidates : state -> string list
(** The candidate list L_x. *)

val candidate_count : state -> int

val push_messages_sent : state -> int
(** Number of push-phase messages this node sent (Lemma 3). *)

val fw1_entries : state -> int * int
(** The Fw1 targets (s, x, w) this node has verified, and the (s, x)
    pairs they fall in. *)
