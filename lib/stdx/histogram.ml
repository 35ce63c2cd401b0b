type t = { counts : (int, int) Hashtbl.t; mutable total : int }

let create () = { counts = Hashtbl.create 16; total = 0 }

let add t v =
  if v < 0 then invalid_arg "Histogram.add: negative value";
  Hashtbl.replace t.counts v (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts v));
  t.total <- t.total + 1

let total t = t.total
let to_rows t = List.sort compare (Hashtbl.fold (fun v c acc -> (v, c) :: acc) t.counts [])

let max_value t =
  match List.rev (to_rows t) with [] -> None | (v, _) :: _ -> Some v

let percentile_opt t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile_opt: p out of range";
  let target = p /. 100.0 *. float_of_int t.total in
  let rec scan acc = function
    | [] -> None
    | [ (v, _) ] -> Some v
    | (v, c) :: rest ->
      let acc = acc + c in
      if float_of_int acc >= target then Some v else scan acc rest
  in
  scan 0 (to_rows t)
