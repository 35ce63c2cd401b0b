(** Byzantine Agreement compositions for Figure 1(b): the
    almost-everywhere phase ({!Fba_core.Ba.run_phase1}) followed by an
    alternative almost-everywhere→everywhere phase 2. The paper's BA
    uses AER; composing the same phase 1 with the grid baseline gives
    the [KLST11]-style comparison row (O~(√n) bits, load-balanced). *)

type result = {
  rounds : int;  (** both phases *)
  bits_per_node : float;  (** both phases combined *)
  phase2_bits_per_node : float;
      (** the almost-everywhere→everywhere phase alone — this is where
          Figure 1(b)'s polylog-vs-√n distinction lives; the committee
          phase 1 is shared by both compositions *)
  max_sent_bits : int;
  load_imbalance : float;
  agreed : int;  (** correct nodes deciding the phase-1 reference *)
  correct : int;
  ae_fraction : float;
}

val of_ba_result : Fba_core.Ba.result -> result
(** Project the paper's BA (aeba + AER) onto the comparison record. *)

val run_aeba_grid : n:int -> seed:int64 -> byzantine_fraction:float -> result
(** Phase 1 + grid diffusion phase 2. *)
