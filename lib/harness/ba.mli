(** BA — the paper's end-to-end Byzantine Agreement protocol, and the
    other Figure 1(b) rows built on the same phase 1.

    The paper composes almost-everywhere agreement (the
    [KSSV06]-shaped {!Fba_aeba.Aeba} substrate) with AER (Section 3,
    "Together with the algorithm presented in [KSSV06], AER yields a
    Byzantine Agreement protocol, noted BA, with amortized complexity
    O~(1)"). Phase 1 produces a common random string gstring known to
    almost all correct nodes (and guarantees ≥ 2/3+ε of its bits are
    uniform); phase 2 extends that knowledge to {e every} correct node.
    The output is gstring — the "string of O(log n) random bits the
    adversary cannot bias too much" output notion the paper adopts from
    [PR10, BOPV06, BO83, Rab83].

    Every composition here hands phase 1 over to its phase 2 the same
    way: if phase 1's plurality string is known to more than half of
    all nodes (AER's precondition), each node starts phase 2 from its
    phase-1 output, and each straggler from a unique junk candidate;
    otherwise phase 2 is skipped and the result reports the failure.
    Corrupted nodes are drawn by {!sample_corruption} and stay silent
    in every phase, and every phase runs rushing on the synchronous
    engine. No composition is traced: to observe one phase, run its
    protocol on an engine with an [?events] sink. *)

type result = {
  metrics : Fba_sim.Metrics.t;  (** both phases combined *)
  aeba_metrics : Fba_sim.Metrics.t;  (** phase 1 alone *)
  phase2_metrics : Fba_sim.Metrics.t option;
      (** phase 2 alone; [None] when the hand-off skipped it *)
  outputs : string option array;  (** final per-node decisions *)
  gstring : string option;  (** the string phase 1 converged on *)
  agreed : int;  (** correct nodes that decided on [gstring] *)
  correct : int;  (** number of correct nodes *)
  ae_fraction : float;
      (** fraction of all nodes knowing gstring after phase 1 — AER's
          precondition needs this above 1/2 *)
  all_decided : bool;
}

val sample_corruption : n:int -> seed:int64 -> byzantine_fraction:float -> Fba_stdx.Bitset.t
(** The ⌊byzantine_fraction·n⌋ corrupted identities, drawn uniformly
    without replacement from a stream of [seed] labelled
    ["corruption"]. *)

val run_sync : n:int -> seed:int64 -> byzantine_fraction:float -> unit -> result
(** The paper's BA: phase 1, then AER. If phase 1 leaves gstring known
    to at most half the nodes (a failed almost-everywhere phase —
    possible, rare), the result reports it with [agreed = 0]. *)

val run_grid : n:int -> seed:int64 -> byzantine_fraction:float -> unit -> result
(** Phase 1, then the load-balanced grid ({!Fba_baselines.Grid_aetoe}):
    the [KLST11]-style comparison row, O~(√n) bits per node in
    phase 2. *)

(** {1 Bit output}

    The paper adopts the random-string output notion but also recalls
    the classical bit-output notion ("the output is required to be the
    input of one of the correct nodes"). {!run_binary} is the classical
    reduction from the former to the latter:

    + run {!run_sync} to agree on gstring;
    + use gstring as the seed of a common coin — since ≥ 2/3+ε of its
      bits are uniform and it is known to every correct node, hashing
      it per round yields shared unpredictable coin flips;
    + run the common-coin randomized binary agreement
      ({!Fba_baselines.Randomized_ba}) on the actual bit inputs, which
      then terminates in O(1) expected rounds.

    Everything stays poly-logarithmic per node except the binary
    phase's broadcasts (Θ(n) single-bit messages per node per round for
    the textbook variant used here). *)

type binary = {
  metrics : Fba_sim.Metrics.t;  (** all three phases *)
  decided_bit : bool option;  (** the common decision, if any correct node decided *)
  agreed : int;  (** correct nodes sharing the common decision *)
  correct : int;
  validity_respected : bool;
      (** true unless the decision differs from every correct input *)
}

val run_binary :
  inputs:(int -> bool) -> n:int -> seed:int64 -> byzantine_fraction:float -> unit -> binary
(** The binary phase runs under the vote-splitting adversary — the case
    private coins struggle with and the gstring-derived coin
    neutralizes. If BA ends with no gstring, the binary phase is skipped
    and nothing is decided. *)
