type t = { words : Bytes.t; capacity : int }

(* Implemented over Bytes to keep the representation compact; a word
   array would also work but Bytes gives us blit/fill for free. *)

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Bytes.make ((capacity + 7) / 8) '\000'; capacity }

let capacity t = t.capacity

let out_of_range () = invalid_arg "Bitset: element out of range"

let[@inline] check t i = if i < 0 || i >= t.capacity then out_of_range ()

(* [mem] and [add] run on every delivery of the async cornering
   schedule and of every plurality vote, so they inline into their
   callers: after [check], byte [i lsr 3] exists, and the read skips
   [Bytes.get]'s second bounds check. *)
let[@inline] mem t i =
  check t i;
  Char.code (Bytes.unsafe_get t.words (i lsr 3)) land (1 lsl (i land 7)) <> 0

let[@inline] add t i =
  check t i;
  let b = i lsr 3 in
  Bytes.unsafe_set t.words b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.words b) lor (1 lsl (i land 7))))

let remove t i =
  check t i;
  let b = i lsr 3 in
  Bytes.set t.words b
    (Char.chr (Char.code (Bytes.get t.words b) land lnot (1 lsl (i land 7)) land 0xff))

let popcount_byte =
  let table = Array.init 256 (fun i ->
    let rec count n = if n = 0 then 0 else (n land 1) + count (n lsr 1) in
    count i)
  in
  fun c -> table.(Char.code c)

let cardinal t =
  let acc = ref 0 in
  Bytes.iter (fun c -> acc := !acc + popcount_byte c) t.words;
  !acc

let is_empty t = cardinal t = 0

let copy t = { words = Bytes.copy t.words; capacity = t.capacity }

let clear t = Bytes.fill t.words 0 (Bytes.length t.words) '\000'

let of_list capacity elements =
  let t = create capacity in
  List.iter (add t) elements;
  t

let of_array capacity elements =
  let t = create capacity in
  Array.iter (add t) elements;
  t

let iter f t =
  for i = 0 to t.capacity - 1 do
    if Char.code (Bytes.get t.words (i lsr 3)) land (1 lsl (i land 7)) <> 0 then f i
  done

let to_list t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc

let fold f init t =
  let acc = ref init in
  iter (fun i -> acc := f !acc i) t;
  !acc

(* Phantom bits past [capacity] are kept zero by every constructor
   (complement masks them), so a raw byte comparison is sound. *)
let equal a b = a.capacity = b.capacity && Bytes.equal a.words b.words

let same_capacity a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset: capacity mismatch"

let map2 f a b =
  same_capacity a b;
  let out = create a.capacity in
  for i = 0 to Bytes.length a.words - 1 do
    Bytes.set out.words i
      (Char.chr (f (Char.code (Bytes.get a.words i)) (Char.code (Bytes.get b.words i)) land 0xff))
  done;
  out

let union a b = map2 (lor) a b
let inter a b = map2 (land) a b
let diff a b = map2 (fun x y -> x land lnot y) a b

let complement t =
  let out = create t.capacity in
  for i = 0 to Bytes.length t.words - 1 do
    Bytes.set out.words i (Char.chr (lnot (Char.code (Bytes.get t.words i)) land 0xff))
  done;
  (* Mask out phantom bits past capacity. *)
  let rem = t.capacity land 7 in
  if rem <> 0 && Bytes.length out.words > 0 then begin
    let last = Bytes.length out.words - 1 in
    Bytes.set out.words last (Char.chr (Char.code (Bytes.get out.words last) land ((1 lsl rem) - 1)))
  end;
  out

let count_in t a =
  let acc = ref 0 in
  Array.iter (fun i -> if mem t i then incr acc) a;
  !acc
