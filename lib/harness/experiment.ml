module type S = sig
  val name : string

  type cell
  type row

  val grid : full:bool -> cell list
  val run_cell : cell -> row
  val render : full:bool -> out:out_channel -> row list -> unit
end

type t = (module S)

let name (module E : S) = E.name

let run ?(jobs = 0) ?(full = false) (module E : S) ~out () =
  let jobs = Fba_stdx.Pool.resolve_jobs jobs in
  E.render ~full ~out (Fba_stdx.Pool.map_list ~jobs E.run_cell (E.grid ~full))
