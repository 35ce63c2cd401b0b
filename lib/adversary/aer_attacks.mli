(** Byzantine strategies against AER.

    Each builder returns an adversary record for the synchronous or
    asynchronous engine. The adversary is non-adaptive in the paper's
    sense (corruption is fixed by the scenario before execution) but
    has full information: it knows gstring, the sampler seeds, and —
    depending on the engine mode — the messages correct nodes are
    sending.

    The strategies implement the attacks the paper's analysis
    contemplates:
    - flooding the push phase with fake candidates (Lemmas 3–5);
    - answering polls with bogus strings to force wrong decisions
      (Lemma 7);
    - "cornering": spending the per-node answer filter of Algorithm 3
      (log² n pull requests) on targeted poll-list members so that
      honest polls stall until their answerers have decided — the
      overload chains bounded by Lemma 6 / Property 2. *)

open Fba_core

type sync = Aer.msg Fba_sim.Sync_engine.adversary
type async = Aer.msg Fba_sim.Async_engine.adversary

val silent : Scenario.t -> sync
(** Corrupted nodes send nothing at all (fail-stop). AER guarantees
    success with no Byzantine interference, so this must always
    succeed. *)

val compose : Scenario.t -> sync list -> sync
(** Run several strategies simultaneously (messages concatenated).
    All must stem from the same scenario. *)

val push_flood : ?fake_strings:int -> ?blast:bool -> Scenario.t -> sync
(** Round-0 push flooding: the coalition picks [fake_strings]
    adversarial candidates (default 3) and every corrupted node pushes
    all of them to the nodes whose push quorum it belongs to (so the
    pushes pass the membership filter and maximize the chance of
    planting fake candidates). With [blast] (default false) each
    corrupted node instead pushes to {e every} node — maximal received
    traffic, but filtered on arrival. Exercises Lemma 4's O(n) bound
    on candidate-list mass. *)

val wrong_answer : Scenario.t -> sync
(** Corrupted poll-list members answer every poll for a non-gstring
    candidate, trying to assemble a bogus answer majority (the Lemma 7
    failure mode). Strongest combined with a {!Scenario.Junk_shared}
    workload and {!push_flood}, which plant non-gstring candidates in
    correct lists. *)

val cornering : Scenario.t -> sync
(** The Lemma 6 rushing attack. In round 0 the adversary observes the
    polls correct nodes issue, ranks their poll-list members, and
    spends its budget of protocol-legitimate pull requests — one per
    corrupted node, with a label r searched among 64 candidates so
    that the chosen victims sit in J(a, r) — to exhaust the victims'
    answer filter before honest answers are due. Victims then stay
    silent until they decide, stretching decision time. Requires the
    [`Rushing] engine mode to see round-0 polls. *)

val quorum_capture : ?victims:int -> ?strings_per_victim:int -> Scenario.t -> sync
(** The load-balance attack of Section 1 ("a Byzantine adversary can
    seize control of several Input Quorums, associated to a few nodes,
    and force these nodes to verify an almost-linear number of
    strings: as such, AER is not load-balanced"). For each victim the
    coalition searches candidate strings whose push quorum I(s, victim)
    contains a corrupted majority (feasible since the sampler is public
    — full information), then pushes them from exactly those quorum
    members; the victim must accept and verify each. Succeeds only
    when quorums are small relative to the Byzantine fraction, i.e. it
    also demonstrates why quorum sizing matters. [victims] defaults to
    4 and [strings_per_victim] to n/8; the search gives up after 400
    hash tries per string. *)

(** {2 Asynchronous variants} *)

val async_of_sync : ?max_delay:int -> Scenario.t -> sync -> async
(** Lift a synchronous strategy: messages between correct nodes get
    [max_delay] (default 4), adversary traffic is instant, and the
    lifted strategy's [act] runs once per [max_delay] window over the
    messages observed in that window. Every correct send is logged for
    its window, whether or not the strategy reads it. *)

val async_cornering : Scenario.t -> async
(** Full asynchronous scheduling power (Lemma 6's general case): the
    cornering floods plus content-inspecting delays — messages serving
    the adversary's own pull chains travel at speed 1, honest answer
    traffic at [max_delay] 4. The same execution as
    [async_of_sync ~max_delay:4 sc (cornering sc)] with this delay, but
    it reads only what cornering reads: [observe] counts the honest
    gstring polls sent at time 0, [inject ~time:0] returns the plan,
    and later sends are not logged. *)
