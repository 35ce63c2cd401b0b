(* Open-addressing int -> int table, the immediate-key twin of
   I64_table. Keys are non-negative packed identifiers (sid, (x, s)
   pairs, bitmask slots), so -1 works as the empty-slot marker and the
   whole table is two unboxed int arrays — no Bytes occupancy plane,
   no boxing, no per-entry allocation. Used as the protocol's set and
   counter representation, where Hashtbl's per-probe hashing and
   per-add bucket cons dominate the delivery path. *)

type t = {
  mutable keys : int array;  (* -1 = empty slot *)
  mutable vals : int array;
  mutable mask : int;  (* capacity - 1 *)
  mutable count : int;
}

let initial_capacity = 16

let create ?(capacity = initial_capacity) () =
  let cap =
    let rec up c = if c >= capacity then c else up (2 * c) in
    up initial_capacity
  in
  { keys = Array.make cap (-1); vals = Array.make cap 0; mask = cap - 1; count = 0 }

let length t = t.count

(* Fibonacci multiplicative hashing: packed keys are structured (field
   concatenations), so low bits alone would cluster. *)
let[@inline] slot_of key mask = key * 0x9E3779B97F4A7C1 lsr 30 land mask

let rec probe keys key mask i =
  let k = Array.unsafe_get keys i in
  if k = key then i else if k = -1 then -1 - i else probe keys key mask ((i + 1) land mask)

let[@inline] find_slot t key = probe t.keys key t.mask (slot_of key t.mask)

let[@inline] mem t key = find_slot t key >= 0

let[@inline] get_or t key ~default =
  let i = find_slot t key in
  if i >= 0 then Array.unsafe_get t.vals i else default

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = 2 * (t.mask + 1) in
  t.keys <- Array.make cap (-1);
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  for i = 0 to Array.length old_keys - 1 do
    let key = old_keys.(i) in
    if key >= 0 then begin
      let j =
        let rec free j = if t.keys.(j) = -1 then j else free ((j + 1) land t.mask) in
        free (slot_of key t.mask)
      in
      t.keys.(j) <- key;
      t.vals.(j) <- old_vals.(i)
    end
  done

let[@inline] set t key v =
  if key < 0 then invalid_arg "Int_table.set: negative key";
  if 2 * (t.count + 1) > t.mask + 1 then grow t;
  let i = find_slot t key in
  if i >= 0 then t.vals.(i) <- v
  else begin
    let i = -1 - i in
    t.keys.(i) <- key;
    t.vals.(i) <- v;
    t.count <- t.count + 1
  end

(* Set-flavoured entry points: [add] is first-insertion detection (the
   value plane is unused), [incr] is an in-place counter bump returning
   the new count, [add_bit] maintains a 62-bit presence mask. All three
   are single-probe on the hit path. *)

let[@inline] add t key =
  if key < 0 then invalid_arg "Int_table.add: negative key";
  if 2 * (t.count + 1) > t.mask + 1 then grow t;
  let i = find_slot t key in
  if i >= 0 then false
  else begin
    let i = -1 - i in
    t.keys.(i) <- key;
    t.vals.(i) <- 0;
    t.count <- t.count + 1;
    true
  end

let[@inline] incr t key =
  if key < 0 then invalid_arg "Int_table.incr: negative key";
  if 2 * (t.count + 1) > t.mask + 1 then grow t;
  let i = find_slot t key in
  if i >= 0 then begin
    let v = t.vals.(i) + 1 in
    t.vals.(i) <- v;
    v
  end
  else begin
    let i = -1 - i in
    t.keys.(i) <- key;
    t.vals.(i) <- 1;
    t.count <- t.count + 1;
    1
  end

let[@inline] add_bit t key ~bit =
  if key < 0 then invalid_arg "Int_table.add_bit: negative key";
  if 2 * (t.count + 1) > t.mask + 1 then grow t;
  let b = 1 lsl bit in
  let i = find_slot t key in
  if i >= 0 then begin
    let v = t.vals.(i) in
    if v land b <> 0 then false
    else begin
      t.vals.(i) <- v lor b;
      true
    end
  end
  else begin
    let i = -1 - i in
    t.keys.(i) <- key;
    t.vals.(i) <- b;
    t.count <- t.count + 1;
    true
  end

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) (-1);
  t.count <- 0

let reset t =
  t.keys <- Array.make initial_capacity (-1);
  t.vals <- Array.make initial_capacity 0;
  t.mask <- initial_capacity - 1;
  t.count <- 0

let capacity_words t = 2 * (t.mask + 1)

let iter f t =
  for i = 0 to Array.length t.keys - 1 do
    let key = Array.unsafe_get t.keys i in
    if key >= 0 then f key t.vals.(i)
  done
