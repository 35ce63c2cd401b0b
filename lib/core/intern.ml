open Fba_stdx

type t = {
  by_string : (string, int) Hashtbl.t;
  strings : string Vec.t;
  by_label : (int64, int) Hashtbl.t;
  labels : int64 Vec.t;
  string_cap : int;
  label_cap : int;
}

let create ~max_strings ~max_labels =
  {
    by_string = Hashtbl.create 64;
    strings = Vec.create ();
    by_label = Hashtbl.create 64;
    labels = Vec.create ();
    string_cap = max_strings;
    label_cap = max_labels;
  }

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
  match Hashtbl.find t.by_label r with
  | rid -> rid
  | exception Not_found ->
    let rid = Vec.length t.labels in
    if rid >= t.label_cap then
      failwith
        (Printf.sprintf
           "Intern.intern_label: label table full (the layout's rid field caps a run at %d \
            distinct labels)"
           t.label_cap);
    Hashtbl.add t.by_label r rid;
    Vec.push t.labels r;
    rid

let[@inline] label t rid = Vec.get t.labels rid
