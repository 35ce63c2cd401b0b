open Fba_stdx

type t = {
  seed : int64;
  n : int;
  d : int;
  scratch : int array;  (* membership-scan prefix buffer, reused *)
}

let create ~seed ~n ~d =
  if d < 1 || d > n then invalid_arg "Sampler.create: need 1 <= d <= n";
  { seed; n; d; scratch = Array.make d (-1) }

let n t = t.n
let d t = t.d

let default_d ~n =
  let d = 4 * Intx.ceil_log2 (max 2 n) in
  Intx.clamp ~lo:1 ~hi:n d

(* The absorbed key state fully determines a quorum, so it doubles as
   the cache key ({!Cache} keys its open-addressing tables on it): even
   a state collision between distinct (s, x) pairs is harmless because
   colliding states draw identical quorums by construction. *)
let key_sx t ~s ~x =
  Hash64.add_int (Hash64.add_string (Hash64.add_int (Hash64.init t.seed) 0x53) s) x

let key_xr t ~x ~r =
  Hash64.add_int64 (Hash64.add_int (Hash64.add_int (Hash64.init t.seed) 0x4a) x) r

(* [v] among [out.(pos .. pos+k-1)]. Top-level and int-typed, like
   Cache's scans: a local loop would allocate a closure per draw. *)
let rec mem_prefix (out : int array) pos (v : int) i k =
  i < k && (out.(pos + i) = v || mem_prefix out pos v (i + 1) k)

(* Draw the quorum for an absorbed key state into [out.(pos ..
   pos+d-1)]: counter-mode hashing with rejection of duplicates.
   Deterministic; terminates because d <= n. *)
let quorum_into t key out ~pos =
  let k = ref 0 in
  let attempt = ref 0 in
  while !k < t.d do
    let v = Hash64.draw key !attempt ~bound:t.n in
    incr attempt;
    if not (mem_prefix out pos v 0 !k) then begin
      out.(pos + !k) <- v;
      incr k
    end
  done

let quorum_of_key t key =
  let out = Array.make t.d (-1) in
  quorum_into t key out ~pos:0;
  out

let quorum_sx t ~s ~x = quorum_of_key t (key_sx t ~s ~x)
let quorum_xr t ~x ~r = quorum_of_key t (key_xr t ~x ~r)

(* Membership without materializing the quorum: replay the counter-mode
   draw into the reusable scratch prefix and stop the moment [y] comes
   out — a value drawn at any point before the d-th distinct element is
   in the quorum by construction. On average this halves the hashing
   for members and allocates nothing either way. *)
let mem_of_key t key ~y =
  let out = t.scratch in
  let found = ref false in
  let k = ref 0 in
  let attempt = ref 0 in
  while (not !found) && !k < t.d do
    let v = Hash64.draw key !attempt ~bound:t.n in
    incr attempt;
    if not (mem_prefix out 0 v 0 !k) then begin
      if v = y then found := true;
      out.(!k) <- v;
      incr k
    end
  done;
  !found

let mem_sx t ~s ~x ~y = mem_of_key t (key_sx t ~s ~x) ~y
let mem_xr t ~x ~r ~y = mem_of_key t (key_xr t ~x ~r) ~y

let majority_threshold k = (k / 2) + 1
