type t = {
  mutable seen : int list;  (* senders already counted *)
  counts : (string, int) Hashtbl.t;
  mutable best : string option;
  mutable best_votes : int;
}

let create () = { seen = []; counts = Hashtbl.create 8; best = None; best_votes = 0 }

(* Only [v]'s count moves, so only [v] can overtake the winner. *)
let vote t v =
  let c = match Hashtbl.find t.counts v with c -> c + 1 | exception Not_found -> 1 in
  Hashtbl.replace t.counts v c;
  match t.best with
  | Some b when String.equal b v -> t.best_votes <- c
  | Some b when c < t.best_votes || (c = t.best_votes && String.compare v b > 0) -> ()
  | _ ->
    t.best <- Some v;
    t.best_votes <- c

let rec mem (src : int) = function [] -> false | s :: rest -> s = src || mem src rest

let add t ~src v =
  if not (mem src t.seen) then begin
    t.seen <- src :: t.seen;
    vote t v
  end

let winner t = t.best
let winner_or t ~default = match t.best with Some v -> v | None -> default
let winner_votes t = t.best_votes

let of_outputs outputs ~counted =
  let t = create () in
  Array.iteri (fun i o -> match o with Some v when counted i -> vote t v | _ -> ()) outputs;
  t.best
