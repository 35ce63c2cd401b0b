module Counts = Hashtbl.Make (String)

type t = {
  seen : Bitset.t;  (* voter slots already counted *)
  counts : int Counts.t;
  mutable best : string option;
  mutable best_votes : int;
}

let create ~voters =
  { seen = Bitset.create voters; counts = Counts.create 8; best = None; best_votes = 0 }

(* Only [v]'s count moves, so only [v] can overtake the winner. *)
let vote t v =
  let c = match Counts.find t.counts v with c -> c + 1 | exception Not_found -> 1 in
  Counts.replace t.counts v c;
  match t.best with
  | Some b when String.equal b v -> t.best_votes <- c
  | Some b when c < t.best_votes || (c = t.best_votes && String.compare v b > 0) -> ()
  | _ ->
    t.best <- Some v;
    t.best_votes <- c

let add t ~voter v =
  if not (Bitset.mem t.seen voter) then begin
    Bitset.add t.seen voter;
    vote t v
  end

let winner t = t.best
let winner_or t ~default = match t.best with Some v -> v | None -> default
let winner_votes t = t.best_votes

let of_outputs outputs ~counted =
  let t = create ~voters:0 in
  Array.iteri (fun i o -> match o with Some v when counted i -> vote t v | _ -> ()) outputs;
  t.best
