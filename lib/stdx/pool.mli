(** Fixed worker pool over OCaml 5 domains.

    [run ~jobs f len] evaluates [f 0 .. f (len-1)] across at most
    [jobs] domains and returns the results in index order. Tasks are
    claimed from a shared atomic counter, so unequal task costs
    self-balance; results land in their own slot, so collection is
    ordered by construction and independent of scheduling.

    The tasks must be isolated: [f i] may freely allocate and mutate
    state it creates itself, but must not touch mutable state shared
    with another task. Under that contract the result array is
    identical for every [jobs] value — parallelism cannot be observed
    in the output.

    [jobs <= 1] (or a single task) runs everything inline on the
    calling domain, in index order, spawning nothing: the degenerate
    path is ordinary sequential code.

    If a task raises, the pool stops handing out new tasks, waits for
    in-flight tasks, and re-raises the pending exception with the
    smallest task index (with its backtrace). Results of completed
    tasks are discarded in that case. *)

val recommended_jobs : unit -> int
(** Default worker count: the [FBA_JOBS] environment variable when set
    to a positive integer, otherwise [Domain.recommended_domain_count
    ()]; clamped to [>= 1]. There is no built-in ceiling — machines
    with more cores get more domains unless the caller or the
    environment says otherwise. *)

val run : jobs:int -> (int -> 'a) -> int -> 'a array
(** [run ~jobs f len] is [[| f 0; ...; f (len-1) |]], computed on
    [min jobs len] domains. *)

val map_list : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list ~jobs f l] is [List.map f l] via {!run}. *)
