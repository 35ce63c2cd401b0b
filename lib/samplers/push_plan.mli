(** Inverse-sampler evaluation for the push phase (Section 3.1.1).

    During the push, a node [y] with initial candidate [s_y] sends
    [s_y] to every [x] such that [y ∈ I(s_y, x)]. Evaluating that
    inverse set naively costs O(n·d) hashes per (string, node) pair;
    since the number of *distinct* strings actually pushed is small
    (gstring plus whatever the adversary manufactures), we memoize the
    full inverse map per distinct string: one O(n·d) scan amortized
    over all its supporters.

    The same scan also yields [I(s, x)] for every x, which receivers
    need to know their majority threshold, and the overload statistics
    of Lemma 1/Lemma 3 (a node is overloaded by I if some string maps
    too many quorums through it).

    AER's own push fan-out runs on [Fba_core.Compiled]'s CSR rows;
    this string-keyed plan is the oracle they are tested against, and
    what the adversaries and the property checks use. *)

type t

val create : sampler:Sampler.t -> unit -> t

val sampler : t -> Sampler.t

val targets : t -> s:string -> y:int -> int array
(** [targets t ~s ~y] is [{ x | y ∈ I(s, x) }] — the nodes [y] must
    push [s] to. Memoized per [s]. *)

val quorum : t -> s:string -> x:int -> int array
(** [I(s, x)] itself (same values as {!Sampler.quorum_sx}). *)

val max_load : t -> s:string -> int
(** [max_load t ~s] is [max_y |{ x | y ∈ I(s, x) }|] — the worst
    per-node fan-out for string [s]. Lemma 1's non-overload condition
    bounds this by a constant multiple of d. *)

val distinct_strings : t -> int
(** Number of distinct strings memoized so far (diagnostics). *)
