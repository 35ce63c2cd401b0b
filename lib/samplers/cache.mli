(** Memoized quorum evaluation for AER's handlers.

    Protocol handlers check quorum membership (e.g. "is the sender in
    H(s, x)?") millions of times per execution, but over a small set of
    distinct keys: one (s, x) per string and node, one (x, r) per issued
    poll. Caching the quorum arrays turns each check into a d-element
    scan. Purely an evaluation cache — results are identical to calling
    {!Sampler} directly.

    The cache is keyed by {!Fba_core.Intern} ids, the immediates the
    packed message plane carries: an (s, x) quorum lives in a dense row
    of per-[x] slots indexed by the string's id, and an (x, r) quorum
    in a lane indexed by the label's id. A hit is two array loads, with
    no string hashing and no boxed int64 arithmetic. The raw [s]/[r] is
    read only on a cold key, to draw the quorum. Callers that query a
    sampler once per key (the adversaries) call {!Sampler} directly. *)

type t

val create : Sampler.t -> t

val sampler : t -> Sampler.t

val quorum_sid : t -> sid:int -> s:string -> x:int -> int array
(** Cached {!Sampler.quorum_sx} for the string whose interned id is
    [sid]; [s] must be that string (read only on a cold slot). The
    returned array is shared; callers must not mutate it. *)

val pos_sid : t -> sid:int -> s:string -> x:int -> y:int -> int
(** Index of [y] in the cached quorum (draw order), or [-1] if absent:
    one early-exit scan, so [pos_sid ... >= 0] is the membership test.
    Positions are stable for a fixed (sid, x): handlers use them to
    record set membership as quorum positions instead of hashed node
    ids. *)

val seed_sid_row : t -> sid:int -> x:int -> int array -> unit
(** Install a precomputed quorum into the (sid, x) slot (no-op if the
    slot is already filled). The array must equal
    [Sampler.quorum_sx (sampler t) ~s ~x] for the string [s] whose id
    is [sid] — the compile step uses this to donate rows it has already
    drawn, and ownership of the array transfers to the cache. *)

val quorum_rid : t -> x:int -> rid:int -> r:int64 -> int array
(** Cached {!Sampler.quorum_xr} keyed by [(x, rid)]; [r] must be the
    label whose interned id is [rid] (read only on a cold key), and [x]
    a node id below the sampler's [n]. Hot lookups are rid-dense: two
    array loads, no hashing; a label reused across distinct pollers
    (adversarial echo) falls back to a table keyed by [(x, rid)]. Same
    sharing caveat as {!quorum_sid}. *)

val pos_rid : t -> x:int -> rid:int -> r:int64 -> y:int -> int
(** {!pos_sid} for the (x, rid) quorum: index of [y], or [-1] if
    absent. *)
