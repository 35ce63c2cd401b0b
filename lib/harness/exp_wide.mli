(** Experiment [wide] — the Figure 1(a) comparison continued past
    n = 8192, where node ids outgrow 13 bits.

    AER under the cornering adversary against the grid and naive
    baselines at n = 32768 … 262144 (full grid), with shared junk
    strings so the sid field stays narrow at populations where unique
    junk is infeasible. Reports per-size time/bits/load, the node-id
    width of the runs' packed layout ({!Fba_core.Msg.Layout.fit}), and
    the bits/node crossover ratios and fitted power exponents the
    paper's asymptotic table predicts.

    The [FBA_WIDE_SWEEP_SIZES] environment variable (comma-separated
    populations) substitutes the size grid — the ci smoke uses it to
    run the pipeline in seconds.

    Implements {!Experiment.S}. *)

val name : string

type cell
type row

val grid : full:bool -> cell list
(** [full] extends the size grid to 262144 and adds a seed. *)

val run_cell : cell -> row
val render : full:bool -> out:out_channel -> row list -> unit
