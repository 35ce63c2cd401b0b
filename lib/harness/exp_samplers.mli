(** Experiment [samplers] — validate the sampler properties the
    analysis rests on (Lemma 1, Lemma 2 / Section 4.1 / Figure 3).

    - Lemma 1: the (θ,δ)-sampler behaviour of I/H — for any candidate
      string, only a vanishing fraction of quorums lacks a good
      majority, and no node is overloaded (bounded inverse degree);
    - Lemma 2 Property 1: few poll lists have a good-node minority;
    - Lemma 2 Property 2: the boundary-expansion bound |∂L| > (2/3)d|L|
      of the random-digraph model, checked for random and for
      greedily-adversarial ("cornering") label sets L up to the
      n/log n size the lemma covers.

    Implements {!Experiment.S}. *)

val name : string

type cell
type row

val grid : full:bool -> cell list
(** [full] enlarges the size grid and search budget. *)

val run_cell : cell -> row
val render : full:bool -> out:out_channel -> row list -> unit
