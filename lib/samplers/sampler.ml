open Fba_stdx

type t = { seed : int64; n : int; d : int }

let create ~seed ~n ~d =
  if d < 1 || d > n then invalid_arg "Sampler.create: need 1 <= d <= n";
  { seed; n; d }

let n t = t.n
let d t = t.d

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

let majority_threshold k = (k / 2) + 1
