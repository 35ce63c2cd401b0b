(** Experiment [fig1a] — reproduce Figure 1(a): the comparison of
    almost-everywhere→everywhere protocols.

    Paper's table:
    {v
                [KLST11]      AER (sync non-rushing)   AER (async)
    Time        O(log² n)     O(1)                     O(log n / log log n)
    Bits        O~(√n)        O(log² n)                O(log² n)
    Balanced    Yes           No                       No
    v}

    We run the grid baseline (KLST11 stand-in, DESIGN.md substitution 2)
    and AER under a synchronous non-rushing, synchronous rushing and
    asynchronous cornering adversary, over a grid of system sizes, and
    report measured rounds, bits/node, per-node maxima and load
    imbalance, plus fitted growth classes.

    Implements {!Experiment.S}; the toplevel values below are that
    signature, so [(module Exp_fig1a : Experiment.S)] drives it. *)

val name : string

type cell
type row

val grid : full:bool -> cell list
(** [full] enlarges the size grid and seed count. *)

val run_cell : cell -> row
val render : full:bool -> out:out_channel -> row list -> unit
