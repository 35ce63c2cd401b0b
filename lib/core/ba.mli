(** BA — the paper's end-to-end Byzantine Agreement protocol:
    almost-everywhere agreement (the [KSSV06]-shaped {!Fba_aeba.Aeba}
    substrate) composed with AER (Section 3, "Together with the
    algorithm presented in [KSSV06], AER yields a Byzantine Agreement
    protocol, noted BA, with amortized complexity O~(1)").

    Phase 1 produces a common random string gstring known to almost all
    correct nodes (and guarantees ≥ 2/3+ε of its bits are uniform);
    phase 2 extends that knowledge to {e every} correct node. The
    output is gstring — the "string of O(log n) random bits the
    adversary cannot bias too much" output notion the paper adopts from
    [PR10, BOPV06, BO83, Rab83]. *)

type result = {
  metrics : Fba_sim.Metrics.t;  (** both phases combined *)
  aeba_metrics : Fba_sim.Metrics.t;
  aer_metrics : Fba_sim.Metrics.t;
  outputs : string option array;  (** final per-node decisions *)
  gstring : string option;  (** the string phase 1 converged on *)
  agreed : int;  (** correct nodes that decided on [gstring] *)
  correct : int;  (** number of correct nodes *)
  ae_fraction : float;
      (** fraction of all nodes knowing gstring after phase 1 — AER's
          precondition needs this above 1/2 *)
  all_decided : bool;
}

type phase1 = {
  p1_corrupted : Fba_stdx.Bitset.t;
  p1_outputs : string option array;
  p1_reference : string option;  (** plurality among correct outputs *)
  p1_metrics : Fba_sim.Metrics.t;
  p1_ae_fraction : float;
}

val sample_corruption : n:int -> seed:int64 -> byzantine_fraction:float -> Fba_stdx.Bitset.t
(** The ⌊byzantine_fraction·n⌋ corrupted identities, drawn uniformly
    without replacement from a stream of [seed] labelled
    ["corruption"]. *)

val run_phase1 : n:int -> seed:int64 -> byzantine_fraction:float -> unit -> phase1
(** The almost-everywhere phase alone, rushing and with silent
    corrupted nodes — exposed so alternative phase-2 protocols (the
    Figure 1(b) baselines) can be composed with the same substrate. *)

val run_sync : n:int -> seed:int64 -> byzantine_fraction:float -> unit -> result
(** Run the full composition on the synchronous engine, rushing.
    Corruption is {!sample_corruption}, and the corrupted nodes stay
    silent in both phases. If phase 1 leaves gstring known to at most
    half the nodes (a failed almost-everywhere phase — possible, rare),
    the result reports it with [agreed = 0] and phase 2 is skipped.
    The composition is not traced: to observe one phase, run its
    protocol on an engine with an [?events] sink. *)
