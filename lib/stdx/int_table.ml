(* Open-addressing int -> int table. Keys are non-negative packed
   identifiers (sid, (x, s) pairs, label ids), so -1 works as the
   empty-slot marker and the whole table is two unboxed int arrays —
   no Bytes occupancy plane, no boxing, no per-entry allocation. Used
   as the protocol's set and counter representation, where Hashtbl's
   per-probe hashing and per-add bucket cons dominate the delivery
   path. *)

type t = {
  mutable keys : int array;  (* -1 = empty slot *)
  mutable vals : int array;
  mutable mask : int;  (* capacity - 1 *)
  mutable count : int;
}

let initial_capacity = 16

(* The first of c, 2c, 4c, ... that reaches [k]. *)
let rec doubled_to c k = if c >= k then c else doubled_to (2 * c) k

let create ?(capacity = initial_capacity) () =
  let cap = doubled_to initial_capacity capacity in
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

(* Rehash into the smallest power of two that holds [k] keys under
   the one-half load bound and is no smaller than today's storage;
   nothing moves when the table already fits. The keys are distinct,
   so [probe] ends each one's walk at the free slot it takes. *)
let reserve t k =
  let cap = doubled_to (t.mask + 1) (2 * k) in
  if cap > t.mask + 1 then begin
    let old_keys = t.keys and old_vals = t.vals in
    t.keys <- Array.make cap (-1);
    t.vals <- Array.make cap 0;
    t.mask <- cap - 1;
    for i = 0 to Array.length old_keys - 1 do
      let key = old_keys.(i) in
      if key >= 0 then begin
        let j = -1 - probe t.keys key t.mask (slot_of key t.mask) in
        t.keys.(j) <- key;
        t.vals.(j) <- old_vals.(i)
      end
    done
  end

(* Room for as many keys as there are slots: double the storage. *)
let grow t = reserve t (t.mask + 1)

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
   the new count. Both are single-probe on the hit path. *)

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

let reset t =
  t.keys <- Array.make initial_capacity (-1);
  t.vals <- Array.make initial_capacity 0;
  t.mask <- initial_capacity - 1;
  t.count <- 0

let iter f t =
  for i = 0 to Array.length t.keys - 1 do
    let key = Array.unsafe_get t.keys i in
    if key >= 0 then f key t.vals.(i)
  done
