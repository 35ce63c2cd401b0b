type t = int64

(* splitmix64-style absorb-and-mix; each absorbed word is passed through
   the full finalizer so that low-entropy inputs (small ints) still
   diffuse across all 64 bits. The word-sized steps are [@inline] so
   that [draw] composes them on unboxed locals. *)

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let init seed = mix (Int64.add seed 0x9E3779B97F4A7C15L)

let[@inline] add_int64 t v = mix (Int64.add (Int64.mul t 0xD1B54A32D192ED03L) v)

let[@inline] add_int t v = add_int64 t (Int64.of_int v)

let add_string t s =
  let acc = ref (add_int t (String.length s)) in
  let n = String.length s in
  let i = ref 0 in
  (* Absorb 8 bytes at a time. *)
  while !i + 8 <= n do
    let w = ref 0L in
    for j = 0 to 7 do
      w := Int64.logor !w (Int64.shift_left (Int64.of_int (Char.code s.[!i + j])) (8 * j))
    done;
    acc := add_int64 !acc !w;
    i := !i + 8
  done;
  if !i < n then begin
    let w = ref 0L in
    for j = 0 to n - !i - 1 do
      w := Int64.logor !w (Int64.shift_left (Int64.of_int (Char.code s.[!i + j])) (8 * j))
    done;
    acc := add_int64 !acc !w
  end;
  !acc

(* [add_int] over [k] words in one call: a caller in another module
   that folds [add_int] itself boxes the state at every step wherever
   the call is not inlined (any [-opaque] build). *)
let add_ints t k f =
  let h = ref t in
  for i = 0 to k - 1 do
    h := add_int !h (f i)
  done;
  !h

let[@inline] finish t = mix t

let[@inline] to_range h bound =
  if bound <= 0 then invalid_arg "Hash64.to_range: non-positive bound";
  Int64.to_int (Int64.rem (Int64.shift_right_logical h 1) (Int64.of_int bound))

(* One sampler draw. Every step above is inlined here, so the
   intermediate states stay in registers: the call allocates nothing
   and returns an immediate, where the composition spelled out at a
   call site in another module boxes each int64 it passes. *)
let draw key i ~bound = to_range (finish (add_int key i)) bound

let hash_string ~seed s = finish (add_string (init seed) s)
