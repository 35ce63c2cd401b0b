(** Experiment [wide] — the Figure 1(a) comparison continued past
    n = 8192, where node ids outgrow 13 bits.

    AER under the cornering adversary against the grid and naive
    baselines at n = 32768 … 262144 (full grid), with shared junk
    strings so the sid field stays narrow at populations where unique
    junk is infeasible. Reports per-size time/bits/load, the node-id
    width of the runs' packed layout ({!Fba_core.Msg.Layout.fit}), and
    the bits/node crossover ratios and fitted power exponents the
    paper's asymptotic table predicts.

    Implements {!Experiment.S}. The cell type is concrete so that a
    smaller grid (the output manifest runs n = 256 and 512) can be
    built, run through {!run_cell} and rendered without the default
    grid's minutes and gigabytes. *)

val name : string

type variant = Aer | Grid | Naive

type cell = { variant : variant; n : int; seeds : int64 list }
(** One protocol at one population, over [seeds] (see
    {!Runner.seeds}). *)

type row

val grid : full:bool -> cell list
(** [full] extends the size grid to 262144 and adds a seed. *)

val run_cell : cell -> row
val render : full:bool -> out:out_channel -> row list -> unit
