type entry = { inverse : int array array; load : int array }

type t = {
  sampler : Sampler.t;
  memo : (string, entry) Hashtbl.t;
  mutable scratch : int array;  (* one n*d quorum slab, reused per build *)
}

let create ~sampler () = { sampler; memo = Hashtbl.create 17; scratch = [||] }

let sampler t = t.sampler

(* Flat two-pass build: draw all n quorums once into the shared
   scratch slab (allocation-free draws), count per-node loads, then
   fill exactly-sized inverse rows. Replaces the historical per-member
   cons lists, whose garbage dominated large-n runs; row order is
   unchanged (x ascending — each y appears at most once per quorum, so
   the fill pass visits y's targets in the same sequence the reversed
   cons lists produced). *)
let build t s =
  let n = Sampler.n t.sampler and d = Sampler.d t.sampler in
  if Array.length t.scratch < n * d then t.scratch <- Array.make (n * d) 0;
  let scratch = t.scratch in
  let load = Array.make n 0 in
  for x = 0 to n - 1 do
    Sampler.quorum_into t.sampler (Sampler.key_sx t.sampler ~s ~x) scratch ~pos:(x * d);
    for j = x * d to ((x + 1) * d) - 1 do
      let y = Array.unsafe_get scratch j in
      load.(y) <- load.(y) + 1
    done
  done;
  let inverse = Array.init n (fun y -> Array.make load.(y) 0) in
  let next = Array.make n 0 in
  for x = 0 to n - 1 do
    for j = x * d to ((x + 1) * d) - 1 do
      let y = Array.unsafe_get scratch j in
      inverse.(y).(next.(y)) <- x;
      next.(y) <- next.(y) + 1
    done
  done;
  { inverse; load }

let entry t s =
  match Hashtbl.find_opt t.memo s with
  | Some e -> e
  | None ->
    let e = build t s in
    Hashtbl.add t.memo s e;
    e

let targets t ~s ~y = (entry t s).inverse.(y)

let quorum t ~s ~x = Sampler.quorum_sx t.sampler ~s ~x

let max_load t ~s = Array.fold_left max 0 (entry t s).load

let distinct_strings t = Hashtbl.length t.memo
