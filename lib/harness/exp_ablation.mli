(** Experiment [ablation] — the design-choice sweeps DESIGN.md calls
    out:

    - quorum size d: soundness (agreement) vs cost (bits), the
      "large enough constants" the paper's asymptotics hide;
    - pull filter (Algorithm 3's log² n cap): too small starves honest
      polls (down to total deadlock below the honest load), too large
      admits more Byzantine-triggered answer traffic;
    - gstring length c·log n: Lemma 5's union bound needs a large
      enough c once the adversary searches for bad strings;
    - buffering vs literal dropping of belief-mismatched messages
      (DESIGN.md substitution 6);
    - the re-poll extension (Section 5 "future work" flavoured):
      attempts > 1 rescues nodes whose poll list drew a Byzantine
      majority;
    - the non-adaptive-adversary assumption: adaptive quorum seizure
      denies designated victims gstring permanently.

    Implements {!Experiment.S}. *)

val name : string

type cell
type row

val grid : full:bool -> cell list
(** [full] enlarges n. *)

val run_cell : cell -> row
val render : full:bool -> out:out_channel -> row list -> unit
