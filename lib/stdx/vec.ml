type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

(* [opaque_identity] is a correctness fence, not a hint. Without
   flambda, ocamlopt 5.1 decides whether to unbox a let-bound int64 or
   float from the branches of its defining expression, and the generic
   read below has a float-array branch: inlined where ['a] is [int64]
   (Intern.label), the result was unboxed as a float and read back as
   garbage. Behind the fence it stays the boxed value it is. *)
let[@inline] get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  Sys.opaque_identity t.data.(i)

(* The pushed element doubles as the array filler, so no dummy value is
   ever needed and slots past [len] only ever hold previously live
   elements. *)
let[@inline] push t x =
  if t.len = Array.length t.data then begin
    let cap = if t.len = 0 then 16 else 2 * t.len in
    let data = Array.make cap x in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let clear t = t.len <- 0

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop: empty vector";
  t.len <- t.len - 1;
  t.data.(t.len)

let reset t =
  t.data <- [||];
  t.len <- 0
