(** Workload construction for AER executions.

    A scenario fixes everything the protocol's precondition (Section
    3.1) speaks about: which identities the (non-adaptive) adversary
    corrupted, which correct nodes already know gstring, what the
    remaining correct nodes hold instead, and gstring itself. The
    adversary corrupts before the execution starts, as in [LSP82]. *)

open Fba_stdx

type junk =
  | Junk_default  (** all ignorant nodes hold the same all-zero string *)
  | Junk_unique  (** each ignorant node holds a distinct random string *)
  | Junk_shared of int
      (** ignorant nodes share [k] adversary-chosen strings round-robin —
          the hardest case for the push filter, since shared junk
          accumulates supporters *)

type t = private {
  params : Params.t;
  gstring : string;
  corrupted : Bitset.t;
  knowledgeable : Bitset.t;  (** correct nodes holding gstring initially *)
  initial : string array;  (** initial candidate of every node *)
  layout : Msg.Layout.t;
      (** the run's packed field widths, {!Msg.Layout.fit} to
          [params.n] and the distinct initial strings; every packed
          word of the run uses it *)
  intern : Intern.t;
      (** the run's string/label interner, pre-seeded with [gstring]
          and every initial candidate (in index order) so packed ids
          are stable; its table caps are the layout's field capacities *)
}

val make :
  ?junk:junk ->
  ?gstring:string ->
  params:Params.t ->
  rng:Prng.t ->
  byzantine_fraction:float ->
  knowledgeable_fraction:float ->
  unit ->
  t
(** Corrupts [⌊byzantine_fraction·n⌋] uniformly random identities and
    marks [⌈knowledgeable_fraction·n⌉] uniformly random *correct* nodes
    as knowing gstring. The paper requires
    [byzantine_fraction < 1/3 − ε] and
    [knowledgeable_fraction > 1/2 + ε]; violations raise
    [Invalid_argument] (so do fractions that cannot be realized, e.g.
    more knowledgeable nodes than correct ones). [gstring] defaults to
    a fresh uniformly random string of [params.gstring_bits] bits;
    [junk] defaults to {!Junk_unique}. *)

val of_assignment :
  params:Params.t ->
  gstring:string ->
  corrupted:Bitset.t ->
  initial:string array ->
  unit ->
  t
(** Build a scenario from an explicit initial-candidate assignment —
    used to hand the output of an almost-everywhere agreement phase to
    AER (the BA composition). [knowledgeable] is derived as the correct
    nodes whose entry equals [gstring]. Raises [Invalid_argument] on
    size mismatches; the (1/2+ε) precondition is {e not} enforced here
    (an execution may legitimately be run on inputs that violate it to
    observe the failure). *)

val knowledgeable_fraction : t -> float
(** |knowledgeable| / n. *)

val correct_count : t -> int

val is_correct : t -> int -> bool

val knows_gstring : t -> int -> bool
(** True for correct nodes whose initial candidate is gstring. *)
