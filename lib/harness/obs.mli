(** Standardized per-execution observations and their aggregation
    across seeds. Every experiment reduces an engine run to an
    {!observation}; {!aggregate} folds a batch into the statistics the
    tables report. *)

type observation = {
  n : int;
  rounds : int;
      (** [Metrics.rounds]: engine rounds, or for an async run its raw
          time steps, not normalized rounds. {!rescale_time} relies on
          that. *)
  decided_fraction : float;  (** correct nodes that decided at all *)
  agreed_fraction : float;  (** correct nodes that decided the reference value *)
  wrong_decisions : int;  (** correct nodes that decided something else *)
  max_decision_round : int option;  (** None if some correct node never decided *)
  p95_decision_round : float;  (** over correct nodes that decided *)
  bits_per_node : float;  (** amortized over n, correct senders only *)
  msgs_per_node : float;  (** messages amortized over n, correct senders only *)
  total_bits_all : int;  (** bits sent by everyone, Byzantine included *)
  max_sent_bits : int;
  max_recv_bits : int;
  load_imbalance : float;
}

val rescale_time : observation -> normalized_rounds:float -> float -> float
(** An async run's decision time [v], in time steps, in the engine's
    normalized rounds: [v * normalized_rounds / o.rounds] ([v] when
    [o.rounds] is 0), so async times compare with sync rounds. *)

val of_metrics :
  metrics:Fba_sim.Metrics.t ->
  outputs:string option array ->
  reference:string option ->
  unit ->
  observation
(** Reduce one engine result. [reference] is the value correct nodes
    were supposed to decide (gstring); [None] means the plurality of
    correct outputs ({!Fba_stdx.Plurality.of_outputs}: ties go to the
    smallest value). All fractions are 0. (never NaN) when the correct
    set is empty. *)

type summary = {
  s_n : int;
  runs : int;
  mean_rounds : float;
  mean_bits_per_node : float;
  mean_max_sent : float;
  mean_imbalance : float;
  mean_decided : float;
  mean_agreed : float;
  total_wrong : int;
  mean_p95_decision : float;
  worst_decision_round : int option;
      (** max over runs; [None] if any run left a correct node undecided *)
}

val aggregate : observation list -> summary
(** Raises [Invalid_argument] on the empty list or mixed n. *)
