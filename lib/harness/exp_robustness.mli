(** Experiment [robustness] — off-model network conditions.

    The paper's model (Section 2.1) assumes a fully-connected,
    authenticated, {e reliable} network; this experiment deliberately
    steps outside it. Using the pluggable {!Fba_sim.Net} layer it
    sweeps

    - i.i.d. per-delivery loss (drop rate 0–0.20), and
    - transient bisections (the two halves cut off from round 1, for a
      sweep of lengths),

    for AER vs the naive-flooding and grid baselines, with a silent
    Byzantine coalition so the network axis is isolated from the
    adversary axis. Reported per condition: the mean fraction of
    correct nodes deciding gstring ("decide probability"), the
    fraction of runs where all of them did, mean rounds-to-decide, and
    mean bits/node — the degradation curves that quantify how far the
    O~(1)-bits guarantee survives off-model.

    Implements {!Experiment.S}. *)

val name : string

type cell
type row

val grid : full:bool -> cell list
(** [full] enlarges n, the seed count and the partition-length sweep. *)

val run_cell : cell -> row
val render : full:bool -> out:out_channel -> row list -> unit
