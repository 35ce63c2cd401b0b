(* Linear probing over a power-of-two array. Slot occupancy lives in a
   separate byte string so that 0L needs no reserved-key treatment and
   values need no option boxing; the value array is materialized lazily
   from the first inserted element (which doubles as the filler, as in
   Vec). *)

type 'a t = {
  mutable keys : int64 array;
  mutable vals : 'a array;  (* [||] until the first insert *)
  mutable used : Bytes.t;
  mutable mask : int;  (* capacity - 1 *)
  mutable count : int;
}

let initial_capacity = 16

let create () =
  {
    keys = Array.make initial_capacity 0L;
    vals = [||];
    used = Bytes.make initial_capacity '\000';
    mask = initial_capacity - 1;
    count = 0;
  }

let length t = t.count

(* Fibonacci-style multiplicative finishing: the keys are hash
   accumulators that may not avalanche in their low bits. Native-int
   arithmetic on the truncated key keeps probing allocation-free
   (Int64 arithmetic boxes every intermediate on non-flambda
   compilers); the full 64-bit key is still what slots compare. *)
let slot_of key mask = (Int64.to_int key * 0x9E3779B97F4A7C1) lsr 30 land mask

let rec probe t key i =
  if Bytes.get t.used i = '\000' then -1 - i
  else if Int64.equal t.keys.(i) key then i
  else probe t key ((i + 1) land t.mask)

let find_slot t key = probe t key (slot_of key t.mask)

let mem t key = find_slot t key >= 0

let get t key =
  let i = find_slot t key in
  if i >= 0 then t.vals.(i) else raise Not_found

let find_opt t key =
  let i = find_slot t key in
  if i >= 0 then Some t.vals.(i) else None

let grow t =
  let old_keys = t.keys and old_vals = t.vals and old_used = t.used in
  let cap = 2 * (t.mask + 1) in
  t.keys <- Array.make cap 0L;
  t.vals <- (if Array.length old_vals = 0 then [||] else Array.make cap old_vals.(0));
  t.used <- Bytes.make cap '\000';
  t.mask <- cap - 1;
  for i = 0 to Array.length old_keys - 1 do
    if Bytes.get old_used i <> '\000' then begin
      let j =
        let rec free j = if Bytes.get t.used j = '\000' then j else free ((j + 1) land t.mask) in
        free (slot_of old_keys.(i) t.mask)
      in
      t.keys.(j) <- old_keys.(i);
      t.vals.(j) <- old_vals.(i);
      Bytes.set t.used j '\001'
    end
  done

let set t key v =
  if 2 * (t.count + 1) > t.mask + 1 then grow t;
  if Array.length t.vals = 0 then t.vals <- Array.make (t.mask + 1) v;
  let i = find_slot t key in
  if i >= 0 then t.vals.(i) <- v
  else begin
    let i = -1 - i in
    t.keys.(i) <- key;
    t.vals.(i) <- v;
    Bytes.set t.used i '\001';
    t.count <- t.count + 1
  end

let iter f t =
  for i = 0 to Array.length t.keys - 1 do
    if Bytes.get t.used i <> '\000' then f t.keys.(i) t.vals.(i)
  done
