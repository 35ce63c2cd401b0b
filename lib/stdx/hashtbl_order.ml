type t = { mutable starts : int array; mutable bucket : int array; mutable order : int array }

let create () = { starts = [||]; bucket = [||]; order = [||] }

let reversed_fold t keys k =
  let b = ref 16 in
  while k > 2 * !b do
    b := 2 * !b
  done;
  let b = !b in
  if Array.length t.starts < b then t.starts <- Array.make b 0
  else Array.fill t.starts 0 b 0;
  if Array.length t.order < k then begin
    let len = Int.max k (2 * Array.length t.order) in
    t.bucket <- Array.make len 0;
    t.order <- Array.make len 0
  end;
  let starts = t.starts and bucket = t.bucket and order = t.order in
  for i = 0 to k - 1 do
    let j = Hashtbl.hash (keys.(i) : int) land (b - 1) in
    bucket.(i) <- j;
    starts.(j) <- starts.(j) + 1
  done;
  (* Bucket j's keys follow those of every higher bucket. *)
  let next = ref 0 in
  for j = b - 1 downto 0 do
    let c = starts.(j) in
    starts.(j) <- !next;
    next := !next + c
  done;
  for i = 0 to k - 1 do
    let j = bucket.(i) in
    order.(starts.(j)) <- i;
    starts.(j) <- starts.(j) + 1
  done;
  order
