type t = {
  counts : (int * string, int) Hashtbl.t;
  mutable kind_set : (string, unit) Hashtbl.t;
  mutable max_round : int;
}

let create () = { counts = Hashtbl.create 64; kind_set = Hashtbl.create 8; max_round = -1 }

let record t ~round ~kind =
  let key = (round, kind) in
  Hashtbl.replace t.counts key (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts key));
  if not (Hashtbl.mem t.kind_set kind) then Hashtbl.add t.kind_set kind ();
  if round > t.max_round then t.max_round <- round

let consumer t = function
  | Events.Deliver { round; kind; _ } -> record t ~round ~kind
  | _ -> ()

let kinds t = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) t.kind_set [])

let rounds t = t.max_round + 1

let count t ~round ~kind = Option.value ~default:0 (Hashtbl.find_opt t.counts (round, kind))

let total t ~kind =
  let acc = ref 0 in
  for round = 0 to t.max_round do
    acc := !acc + count t ~round ~kind
  done;
  !acc

(* Shared by the markdown and CSV renderings: one row per round, one
   right-aligned count column per kind, and a stable trailing "total"
   row (present even when nothing was recorded, so downstream parsers
   can rely on it). *)
let to_table t =
  let ks = kinds t in
  let tbl =
    Fba_stdx.Table.create
      ~columns:(("round", Fba_stdx.Table.Right) :: List.map (fun k -> (k, Fba_stdx.Table.Right)) ks)
  in
  for round = 0 to t.max_round do
    Fba_stdx.Table.add_row tbl
      (string_of_int round :: List.map (fun k -> string_of_int (count t ~round ~kind:k)) ks)
  done;
  Fba_stdx.Table.add_row tbl
    ("total" :: List.map (fun k -> string_of_int (total t ~kind:k)) ks);
  tbl

let render t = Fba_stdx.Table.to_markdown (to_table t)

let to_csv t = Fba_stdx.Table.to_csv (to_table t)
