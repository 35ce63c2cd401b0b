(** The common shape of every experiment module.

    An experiment is a pure pipeline [grid → run_cell* → render]:
    [grid ~full] enumerates the independent cells (each cell carries
    everything it needs, including its seed list), [run_cell] runs the
    simulations of one cell and reduces them to a plain-data row, and
    [render] formats the rows — in grid order — into the tables and
    prose the paper reproduction reports. Because all simulation
    happens in [run_cell] and all I/O in [render], {!run} can shard
    any experiment's cells across a {!Fba_stdx.Pool} of domains
    without the experiment knowing. *)

module type S = sig
  val name : string

  type cell
  (** One independent unit of work. Self-contained: no mutable state
      may be shared between cells (each builds its own scenario,
      metrics and accumulators from the data in the cell). *)

  type row
  (** The plain-data result of one cell — everything [render] needs,
      and nothing live (no channels, no engines). *)

  val grid : full:bool -> cell list
  (** The full grid, in the order the report lists it. Must be cheap
      and deterministic. *)

  val run_cell : cell -> row
  (** Runs on a worker domain; must only touch state it creates. *)

  val render : full:bool -> out:out_channel -> row list -> unit
  (** Renders rows in grid order. Must tolerate a subset grid (tests
      render filtered grids), skipping sections with no rows. *)
end

type t = (module S)

val name : t -> string

val run : ?jobs:int -> ?full:bool -> t -> out:out_channel -> unit -> unit
(** [run ?jobs ?full e ~out ()] = grid, [run_cell] on every cell across
    {!Fba_stdx.Pool.resolve_jobs}[ jobs] domains, render in grid order.
    [jobs] defaults to 0 (size to the machine); [full] defaults to
    [false]. Output is byte-identical for every [jobs] value. *)
