(** Experiment [lemmas] — empirical checks of the paper's Lemmas 3–10.

    - Lemma 3: push-phase communication is O(log n) messages per node
      (no node is overloaded by the sampler I);
    - Lemma 4: the candidate lists of correct nodes sum to O(n) even
      under push-flooding;
    - Lemma 5: every correct node has gstring in its candidate list
      w.h.p.;
    - Lemmas 6/8: polls are answered in O(1) rounds against a
      non-rushing adversary, and the rushing/asynchronous cornering
      adversary stretches that to a slowly growing (O(log n/log log n))
      tail;
    - Lemma 7: no correct node decides on anything but gstring;
    - Lemmas 9/10: end-to-end — constant rounds (sync non-rushing) and
      O~(n) total messages.

    Implements {!Experiment.S}. *)

val name : string

type cell
type row

val cell_size : cell -> int
(** The system size [n] of a cell — lets tests sweep a cheap subset of
    the grid (the jobs-invariance golden filters on it). *)

val grid : full:bool -> cell list
(** [full] enlarges the size grid. *)

val run_cell : cell -> row
val render : full:bool -> out:out_channel -> row list -> unit
(** [render] tolerates subset grids: a section whose rows are absent
    is skipped entirely. *)
