type t = { counts : (int, int) Hashtbl.t; mutable total : int }

let create () = { counts = Hashtbl.create 16; total = 0 }

let add_many t v k =
  if v < 0 then invalid_arg "Histogram.add: negative value";
  if k < 0 then invalid_arg "Histogram.add_many: negative count";
  if k > 0 then begin
    Hashtbl.replace t.counts v (k + Option.value ~default:0 (Hashtbl.find_opt t.counts v));
    t.total <- t.total + k
  end

let add t v = add_many t v 1

let count t v = Option.value ~default:0 (Hashtbl.find_opt t.counts v)

let total t = t.total

let to_rows t =
  List.sort compare (Hashtbl.fold (fun v c acc -> if c > 0 then (v, c) :: acc else acc) t.counts [])

let max_value t =
  match List.rev (to_rows t) with [] -> None | (v, _) :: _ -> Some v

let percentile t p =
  if t.total = 0 then invalid_arg "Histogram.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile: p out of range";
  let target = p /. 100.0 *. float_of_int t.total in
  let rec scan acc = function
    | [] -> invalid_arg "Histogram.percentile: unreachable"
    | [ (v, _) ] -> v
    | (v, c) :: rest ->
      let acc = acc + c in
      if float_of_int acc >= target then v else scan acc rest
  in
  scan 0 (to_rows t)

let percentile_opt t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile_opt: p out of range";
  if t.total = 0 then None else Some (percentile t p)
