type align = Left | Right

type t = {
  headers : string array;
  aligns : align array;
  mutable rows : string array list; (* reversed *)
}

let create ~columns =
  let headers = Array.of_list (List.map fst columns) in
  let aligns = Array.of_list (List.map snd columns) in
  { headers; aligns; rows = [] }

let add_row t cells =
  let row = Array.of_list cells in
  if Array.length row <> Array.length t.headers then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- row :: t.rows

let rows_in_order t = List.rev t.rows

let column_widths t =
  let widths = Array.map String.length t.headers in
  List.iter
    (fun row ->
      Array.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    (rows_in_order t);
  widths

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else begin
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  end

let to_markdown t =
  let widths = column_widths t in
  let buf = Buffer.create 256 in
  let emit_row cells =
    Buffer.add_string buf "|";
    Array.iteri
      (fun i cell ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad t.aligns.(i) widths.(i) cell);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  emit_row t.headers;
  Buffer.add_string buf "|";
  Array.iteri
    (fun i _ ->
      let dashes = String.make (max 3 widths.(i)) '-' in
      let marked =
        match t.aligns.(i) with
        | Left -> dashes
        | Right -> String.sub dashes 0 (String.length dashes - 1) ^ ":"
      in
      Buffer.add_char buf ' ';
      Buffer.add_string buf marked;
      Buffer.add_string buf " |")
    t.headers;
  Buffer.add_char buf '\n';
  List.iter emit_row (rows_in_order t);
  Buffer.contents buf

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let to_csv t =
  let buf = Buffer.create 256 in
  let emit cells =
    Buffer.add_string buf (String.concat "," (List.map csv_escape (Array.to_list cells)));
    Buffer.add_char buf '\n'
  in
  emit t.headers;
  List.iter emit (rows_in_order t);
  Buffer.contents buf

let cell_int = string_of_int
let cell_float ?(decimals = 2) f = Printf.sprintf "%.*f" decimals f
