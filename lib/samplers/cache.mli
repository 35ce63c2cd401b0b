(** Memoized quorum evaluation.

    Protocol handlers check quorum membership (e.g. "is the sender in
    H(s, x)?") millions of times per execution, but over a small set of
    distinct keys: one (s, x) per string and node, one (x, r) per issued
    poll. Caching the quorum arrays turns each check into a d-element
    scan. Purely an evaluation cache — results are identical to calling
    {!Sampler} directly.

    Lookups avoid the per-call (s, x)/(x, r) tuple boxing of a naive
    [Hashtbl]: (s, x) keys resolve through a dense per-string row of
    per-[x] slots (allocation-free hits), and (x, r) keys become a
    single int64 — a precomputed per-[x] salt xor'd with [r] — probed
    in an open-addressing table. {!precompute_xr} additionally batches
    known poll lists into one flat [int array] (quorum [i] at offset
    [i*d]) that membership tests and iteration read in place. *)

type t

val create : ?find:(string -> int) -> Sampler.t -> t
(** [find] is a non-registering string -> interned-id resolver
    (e.g. [Fba_core.Intern.find]), returning [-1] for unknown strings.
    When supplied, the dense sid-indexed rows are the primary store and
    even string-keyed lookups route through them, leaving the string
    table to hold only strings the interner has never seen; without it
    the cache behaves as before the interned-id port (string table
    primary, sid rows sharing its arrays). *)

val sampler : t -> Sampler.t

val reset : ?find:(string -> int) -> t -> sampler:Sampler.t -> unit
(** Epoch reset for instance streams ({!Fba_harness.Service}): rebind
    the cache to [sampler] (the next instance's draw seed), forget
    every memoized quorum, and keep all table storage warm. [find] is
    rebound when given, kept otherwise (the common case: a stream over
    a fixed population reuses its interner in place, so the old
    resolver closure stays valid). After a reset the cache answers
    exactly as a fresh [create] over the same sampler would. *)

val quorum_sx : t -> s:string -> x:int -> int array
(** Cached {!Sampler.quorum_sx}. The returned array is shared; callers
    must not mutate it. *)

val mem_sx : t -> s:string -> x:int -> y:int -> bool

val quorum_xr : t -> x:int -> r:int64 -> int array
(** Cached {!Sampler.quorum_xr}; same sharing caveat. *)

val mem_xr : t -> x:int -> r:int64 -> y:int -> bool

(** {2 Interned-id keying}

    The packed message plane addresses strings and labels by {!Fba_core.Intern}
    ids. These entry points key the same caches by those immediates —
    [sid] lookups are two array loads (no string hashing), [(x, rid)]
    lookups probe an int-keyed table (no boxed int64 arithmetic). The
    raw [s]/[r] is consulted only on a cold key, to draw the quorum;
    results are shared with (and identical to) the string/int64 API. *)

val quorum_sid : t -> sid:int -> s:string -> x:int -> int array
(** Cached quorum for the string whose interned id is [sid]; [s] must
    be that string (read only on first touch of the id). *)

val mem_sid : t -> sid:int -> s:string -> x:int -> y:int -> bool

val pos_sid : t -> sid:int -> s:string -> x:int -> y:int -> int
(** Index of [y] in the cached quorum (draw order), or [-1] if absent.
    Positions are stable for a fixed (sid, x): handlers use them to
    record set membership as quorum-position bits instead of hashed
    node ids. Same cost as {!mem_sid} (one early-exit scan). *)

val seed_sid_row : t -> sid:int -> s:string -> x:int -> int array -> unit
(** Install a precomputed quorum into the (sid, x) slot (no-op if the
    slot is already filled). The array must equal
    [Sampler.quorum_sx (sampler t) ~s ~x] — the compile step uses this
    to donate rows it has already drawn, and ownership of the array
    transfers to the cache. *)

val quorum_rid : t -> x:int -> rid:int -> r:int64 -> int array
(** Cached J-quorum keyed by [(x, rid)]; [r] must be the label whose
    interned id is [rid] (read only on a cold key), and [x] a node id
    below the sampler's [n]. Hot lookups are rid-dense: two array
    loads, no hashing; a label reused across distinct pollers
    (adversarial echo) falls back to the legacy keyed table. *)

val mem_rid : t -> x:int -> rid:int -> r:int64 -> y:int -> bool

val pos_rid : t -> x:int -> rid:int -> r:int64 -> y:int -> int
(** Position analogue of {!mem_rid}; [-1] if absent. *)

val precompute_xr : t -> (int * int64) list -> unit
(** Materialize the poll lists J(x, r) for every listed (x, r) into the
    flat store, one O(d)-hash draw each; pairs already evaluated are
    skipped. Subsequent [mem_xr]/[iter_xr] on these keys read the flat
    slab without allocating. *)

val precomputed_xr : t -> int
(** Number of quorums resident in the flat store. *)

val iter_xr : t -> x:int -> r:int64 -> (int -> unit) -> unit
(** Iterate the members of J(x, r) in draw order; allocation-free on
    precomputed keys, falling back to the cached array otherwise. *)
