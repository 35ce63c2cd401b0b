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

val resolve_jobs : int -> int
(** [resolve_jobs j] is [j] if positive, else
    [Domain.recommended_domain_count ()], and never below 1: the
    command-line convention, where [--jobs 0] means "size to the
    machine". There is no built-in ceiling — machines with more cores
    get more domains unless the caller asks for fewer. *)

val run : jobs:int -> (int -> 'a) -> int -> 'a array
(** [run ~jobs f len] is [[| f 0; ...; f (len-1) |]], computed on
    [min jobs len] domains. *)

val map_list : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list ~jobs f l] is [List.map f l] via {!run}. *)
