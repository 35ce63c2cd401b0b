(** Protocol parameters for AER (Section 3.1 preconditions).

    The paper fixes ε > 0, quorum sizes d = O(log n), a gstring length
    c·log n for a large enough constant c, and a pull-answer filter of
    log² n. This module packages those choices plus the shared sampler
    seeds — the three sampling functions I, H and J are common knowledge
    across all nodes, so they derive deterministically from one master
    seed.

    The three samplers get separate cardinalities because they face
    different failure pressures and costs: I's push quorums must contain
    a majority of *initially knowledgeable* correct nodes (the push
    happens once, Lemma 5), J's poll lists and H's pull quorums only
    need a majority of *correct* nodes (their members answer once they
    eventually learn gstring). H's size enters the Fw1 fan-out
    quadratically (each y ∈ H(s,x) forwards to H(s,w) for every
    w ∈ J(x,r)), so it pays to keep d_h at the low end of Θ(log n). *)

type t = private {
  n : int;  (** system size *)
  seed : int64;  (** master seed: samplers and node RNGs derive from it *)
  d_i : int;  (** push-quorum cardinality (sampler I) *)
  d_h : int;  (** pull-quorum cardinality (sampler H) *)
  d_j : int;  (** poll-list cardinality (sampler J) *)
  gstring_bits : int;  (** c·log₂ n *)
  pull_filter : int;  (** per-string answer cap, default ⌈log₂ n⌉² *)
  max_poll_attempts : int;
      (** re-poll extension: how many labels a node may try per
          candidate. 1 (default) is the paper's protocol; larger values
          let a node whose poll list drew a Byzantine majority retry
          with a fresh random sample, at the cost of multiplying the
          worst-case pull amplification by the same factor. *)
  repoll_timeout : int;  (** rounds before an unanswered poll retries: always 8 *)
}

val make :
  ?d_i:int ->
  ?d_h:int ->
  ?d_j:int ->
  ?gstring_bits:int ->
  ?pull_filter:int ->
  ?max_poll_attempts:int ->
  n:int ->
  seed:int64 ->
  unit ->
  t
(** Defaults: [d_i = d_j = 2·⌈log₂ n⌉], [d_h = max 9 ⌈1.5·log₂ n⌉]
    (all clamped to n), [gstring_bits = 8·⌈log₂ n⌉] (c = 8, comfortably
    above the Lemma 5 threshold at simulated sizes),
    [pull_filter = ⌈log₂ n⌉²] (at least 4). Raises [Invalid_argument]
    for [n < 4] or out-of-range overrides. *)

val make_for :
  ?per_run_miss:float ->
  ?gstring_bits:int ->
  ?pull_filter:int ->
  n:int ->
  seed:int64 ->
  byzantine_fraction:float ->
  knowledgeable_fraction:float ->
  unit ->
  t
(** Size the quorums for a concrete fault model: picks the smallest
    d_i (resp. d_h, d_j) such that the expected number of quorums with
    a bad majority across one execution stays below [per_run_miss]
    (default 0.05), with the paper's single poll attempt. Push quorums
    face the ignorant-or-Byzantine fraction
    [1 − knowledgeable_fraction]; pull quorums and poll lists only the
    Byzantine fraction (their correct members eventually learn
    gstring). This is the "large enough constants" knob the paper's
    asymptotic statements leave implicit — at simulated sizes the
    constants must be made explicit or the w.h.p. regime is silently
    left. *)

val sampler_i : t -> Fba_samplers.Sampler.t
(** Push-quorum sampler I. *)

val sampler_h : t -> Fba_samplers.Sampler.t
(** Pull-quorum sampler H. *)

val sampler_j : t -> Fba_samplers.Sampler.t
(** Poll-list sampler J. *)

val majority_i : t -> int
val majority_h : t -> int
val majority_j : t -> int
(** The "more than half of the quorum" thresholds ([d/2 + 1]) used by
    the push filter, the forwarding filters and the answer count. *)

val quiet_limit : t -> int
(** The synchronous engine's quiescence window ([?quiet_limit]) for an
    AER run: re-polling nodes wake after [repoll_timeout] idle rounds,
    so the cut-off must not fire before then — [repoll_timeout + 2]
    when [max_poll_attempts > 1], else 3 (the engine's default). *)

val id_bits : t -> int
(** Bits to encode one node identity: ⌈log₂ n⌉. *)

val label_bits : int
(** Bits of a poll label r ∈ R; we use 64 (R has polynomial cardinality
    in the paper; 64 bits is ≥ 2·log₂ n at every simulated size). *)
