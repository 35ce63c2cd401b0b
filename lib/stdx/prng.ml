type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* splitmix64 finalizer: bijective 64-bit mixing. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.add seed 0x5851F42D4C957F2DL) }

let next64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = next64 t in
  create (mix64 s)

let split_at t i =
  create (mix64 (Int64.logxor t.state (Int64.mul (Int64.of_int (i + 1)) 0xD1B54A32D192ED03L)))

let int64 t = next64 t

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: non-positive bound";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let b = Int64.of_int bound in
  let rec loop () =
    let r = Int64.shift_right_logical (next64 t) 1 in
    let v = Int64.rem r b in
    if Int64.sub r v > Int64.sub (Int64.sub Int64.max_int b) 1L then loop ()
    else Int64.to_int v
  in
  loop ()

let bool t = Int64.logand (next64 t) 1L = 1L

let float t =
  let r = Int64.shift_right_logical (next64 t) 11 in
  Int64.to_float r *. (1.0 /. 9007199254740992.0)

let bits t k =
  if k < 0 then invalid_arg "Prng.bits: negative length";
  let nbytes = (k + 7) / 8 in
  let b = Bytes.create nbytes in
  for i = 0 to nbytes - 1 do
    Bytes.set b i (Char.chr (int t 256))
  done;
  (* Zero the unused high bits of the final byte for canonical equality. *)
  let rem = k mod 8 in
  if rem <> 0 && nbytes > 0 then begin
    let mask = (1 lsl rem) - 1 in
    Bytes.set b (nbytes - 1) (Char.chr (Char.code (Bytes.get b (nbytes - 1)) land mask))
  end;
  b

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t ~n ~k =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  if k * 4 >= n then begin
    (* Dense case: partial Fisher–Yates over the full index range. *)
    let a = Array.init n (fun i -> i) in
    for i = 0 to k - 1 do
      let j = i + int t (n - i) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.sub a 0 k
  end
  else begin
    (* Sparse case: rejection with a hash set. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int t n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end

let sample_others t ~n ~k ~(self : int) =
  let a = sample_without_replacement t ~n:(n - 1) ~k in
  for i = 0 to k - 1 do
    if a.(i) >= self then a.(i) <- a.(i) + 1
  done;
  a
