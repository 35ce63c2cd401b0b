open Fba_stdx

(* Default capacity limits — the narrow packed layout's field widths
   (Msg.Layout.narrow: 13-bit sid, 20-bit rid). Wide-layout scenarios
   create their interner with the caps of their own layout. *)
let max_strings = 1 lsl 13
let max_labels = 1 lsl 20

type t = {
  by_string : (string, int) Hashtbl.t;
  strings : string Vec.t;
  by_label : int I64_table.t;
  labels : int64 Vec.t;
  mutable string_cap : int;
  mutable label_cap : int;
}

let create ?(max_strings = max_strings) ?(max_labels = max_labels) () =
  {
    by_string = Hashtbl.create 64;
    strings = Vec.create ();
    by_label = I64_table.create ();
    labels = Vec.create ();
    string_cap = max_strings;
    label_cap = max_labels;
  }

let string_cap t = t.string_cap
let label_cap t = t.label_cap

(* Epoch reset: forget every registration but keep the hash buckets
   and vector storage warm, so the next run interns into memory this
   one already paid for. Caps may be rebound when the next scenario
   uses a different packed layout. *)
let reset ?max_strings ?max_labels t =
  Hashtbl.clear t.by_string;
  Vec.clear t.strings;
  I64_table.clear t.by_label;
  Vec.clear t.labels;
  (match max_strings with Some c -> t.string_cap <- c | None -> ());
  (match max_labels with Some c -> t.label_cap <- c | None -> ())

let string_count t = Vec.length t.strings
let label_count t = Vec.length t.labels

let intern t s =
  match Hashtbl.find t.by_string s with
  | sid -> sid
  | exception Not_found ->
    let sid = Vec.length t.strings in
    if sid >= t.string_cap then
      failwith
        (Printf.sprintf
           "Intern.intern: string table full (the layout's sid field caps a run at %d \
            distinct strings)"
           t.string_cap);
    Hashtbl.add t.by_string s sid;
    Vec.push t.strings s;
    sid

let find t s = match Hashtbl.find t.by_string s with sid -> sid | exception Not_found -> -1

let[@inline] string t sid = Vec.get t.strings sid

let intern_label t r =
  match I64_table.get t.by_label r with
  | rid -> rid
  | exception Not_found ->
    let rid = Vec.length t.labels in
    if rid >= t.label_cap then
      failwith
        (Printf.sprintf
           "Intern.intern_label: label table full (the layout's rid field caps a run at %d \
            distinct labels)"
           t.label_cap);
    I64_table.set t.by_label r rid;
    Vec.push t.labels r;
    rid

let[@inline] label t rid = Vec.get t.labels rid
