(** Experiment [fig1b] — reproduce Figure 1(b): the Byzantine
    Agreement comparison.

    Paper's table:
    {v
              [BOPV06]   [KLST11]  BA (this paper)  [PR10]        [KS13]
    Model     SR         SR        SR               APC           Async
    Time      O(log n)   polylog   polylog          O(1)          O~(n^2.5)
    Bits      n^O(log n) O~(√n)    polylog          Ω(n² log n)   ?
    n         4t+1       3t+1      3t+1             4t+1          500t
    v}

    We run: BA = aeba ∘ AER (the paper's protocol), aeba ∘ grid (the
    KLST11-style row), a common-coin randomized BA ([PR10] stand-in,
    DESIGN.md substitution 3), Ben-Or with private coins, and the
    deterministic phase-king protocol (the super-polylog bits wall that
    [BOPV06]'s n^{O(log n)} also sits behind; BOPV06 itself is not
    runnable beyond toy sizes — substitution 4). [KS13] is quoted but
    not run (orthogonal contribution).

    Implements {!Experiment.S}. *)

val name : string

type cell
type row

val grid : full:bool -> cell list
(** [full] enlarges the size grid and seed count. *)

val run_cell : cell -> row
val render : full:bool -> out:out_channel -> row list -> unit
