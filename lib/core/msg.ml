open Fba_stdx

(* The field widths of the packed word, first-class. The packing order
   is fixed — [tag:3 | sid | rid | x | w], LSB first — only the widths
   move. Everything the rest of the plane needs (shifts, masks, caps)
   is precomputed here so the hot paths pay one record load where they
   used to pay a literal. *)
module Layout = struct
  type t = {
    sid_bits : int;
    rid_bits : int;
    id_bits : int;
    rid_shift : int;
    x_shift : int;
    w_shift : int;
    sid_mask : int;
    rid_mask : int;
    id_mask : int;
    max_n : int;  (* 2^id_bits — node ids and embedded x/w fields *)
    max_strings : int;  (* 2^sid_bits — interner string-table cap *)
    max_labels : int;  (* 2^rid_bits — interner label-table cap *)
  }

  let total_bits t = 3 + t.sid_bits + t.rid_bits + (2 * t.id_bits)

  let make ~sid_bits ~rid_bits ~id_bits =
    if sid_bits < 1 || rid_bits < 1 || id_bits < 1 then
      invalid_arg "Msg.Layout.make: field widths must be positive";
    let total = 3 + sid_bits + rid_bits + (2 * id_bits) in
    if total > 63 then
      invalid_arg
        (Printf.sprintf
           "Msg.Layout.make: tag:3|sid:%d|rid:%d|x:%d|w:%d needs %d bits; only 63 fit an \
            OCaml immediate"
           sid_bits rid_bits id_bits id_bits total);
    {
      sid_bits;
      rid_bits;
      id_bits;
      rid_shift = 3 + sid_bits;
      x_shift = 3 + sid_bits + rid_bits;
      w_shift = 3 + sid_bits + rid_bits + id_bits;
      sid_mask = (1 lsl sid_bits) - 1;
      rid_mask = (1 lsl rid_bits) - 1;
      id_mask = (1 lsl id_bits) - 1;
      max_n = 1 lsl id_bits;
      max_strings = 1 lsl sid_bits;
      max_labels = 1 lsl rid_bits;
    }

  (* The structural ceiling of the single-int word: past n = 2^18 the
     node-id fields leave the label field under its id_bits + 1 floor
     however few strings a run has. *)
  exception Immediate_exhausted of { n : int; id_bits : int }

  let () =
    Printexc.register_printer (function
      | Immediate_exhausted { n; id_bits } ->
        Some
          (Printf.sprintf
             "Msg.Layout.Immediate_exhausted: n=%d needs %d-bit node ids, and \
              tag:3|sid:4|rid:%d|x:%d|w:%d already fills the 63-bit immediate — no string \
              budget can help past n=262144. This is the single-int packed word's ceiling; \
              the planned 2-int lane (two words per message) lifts it."
             n id_bits (id_bits + 1) id_bits id_bits)
      | _ -> None)

  let min_sid_bits = 4

  (* Node ids get exactly what n needs, strings ~2x headroom over the
     initial distinct count (room for adversarial registrations), and
     the poll-label field every remaining bit — labels are drawn fresh
     per poll, so rid is the field that scales with a run's length. *)
  let fit ~n ~strings =
    if n < 1 then invalid_arg "Msg.Layout.fit: n must be positive";
    let id_bits = Intx.ceil_log2 (max 2 n) in
    (* Structural ceiling first: with even the minimal string budget,
       ids this wide leave the label field under its id_bits + 1 floor.
       No [strings] choice can fix that (it is n, not the scenario,
       that overflows the immediate), so it gets its own named error —
       distinct from the fewer-strings advice below. First breached at
       id_bits = 19, i.e. n > 2^18 = 262144. *)
    if 60 - (2 * id_bits) - min_sid_bits < id_bits + 1 then
      raise (Immediate_exhausted { n; id_bits });
    let sid_bits = max min_sid_bits (Intx.ceil_log2 (2 * (strings + 2))) in
    let rid_bits = min 30 (60 - (2 * id_bits) - sid_bits) in
    if rid_bits < id_bits + 1 then
      invalid_arg
        (Printf.sprintf
           "Msg.Layout.fit: n=%d with %d distinct strings needs sid:%d + x/w:%d bits, \
            leaving rid:%d < %d — the run would exhaust poll labels; use fewer distinct \
            initial strings (Scenario.Junk_shared) or a smaller n"
           n strings sid_bits id_bits rid_bits (id_bits + 1));
    make ~sid_bits ~rid_bits ~id_bits
end

(* A message is one OCaml immediate, so mailboxes and calendar buckets
   hold unboxed ints and enqueue/deliver never touch the heap. Strings
   and labels are replaced by their ids in the run's interner; the
   field widths come from the run's {!Layout} (LSB first)

     tag:3 | sid | rid | x | w

   and always fit a 63-bit immediate. The constructors check every
   field against the layout's caps. Tag 0 is deliberately invalid so an
   uninitialized slot can never decode. *)
module Packed = struct
  type t = int

  let tag_push = 1
  let tag_poll = 2
  let tag_pull = 3
  let tag_fw1 = 4
  let tag_fw2 = 5
  let tag_answer = 6

  let[@inline] tag p = p land 7
  let[@inline] sid (lt : Layout.t) p = (p lsr 3) land lt.Layout.sid_mask
  let[@inline] rid (lt : Layout.t) p = (p lsr lt.Layout.rid_shift) land lt.Layout.rid_mask
  let[@inline] x (lt : Layout.t) p = (p lsr lt.Layout.x_shift) land lt.Layout.id_mask
  let[@inline] w (lt : Layout.t) p = (p lsr lt.Layout.w_shift) land lt.Layout.id_mask

  (* Cold path: name the field, the value and the bound it missed —
     pulled out of the constructors so their fast path stays a shift
     and a branch. *)
  let field_overflow name v bits =
    invalid_arg
      (Printf.sprintf "Msg.Packed: %s=%d does not fit the layout's %d-bit %s field (max %d)"
         name v bits name ((1 lsl bits) - 1))

  let[@inline] check_sid (lt : Layout.t) v =
    if v lsr lt.Layout.sid_bits <> 0 then field_overflow "sid" v lt.Layout.sid_bits else v

  let[@inline] check_rid (lt : Layout.t) v =
    if v lsr lt.Layout.rid_bits <> 0 then field_overflow "rid" v lt.Layout.rid_bits else v

  let[@inline] check_id (lt : Layout.t) name v =
    if v lsr lt.Layout.id_bits <> 0 then field_overflow name v lt.Layout.id_bits else v

  let[@inline] push (lt : Layout.t) ~sid = tag_push lor (check_sid lt sid lsl 3)

  let[@inline] poll (lt : Layout.t) ~sid ~rid =
    tag_poll lor (check_sid lt sid lsl 3) lor (check_rid lt rid lsl lt.Layout.rid_shift)

  let[@inline] pull (lt : Layout.t) ~sid ~rid =
    tag_pull lor (check_sid lt sid lsl 3) lor (check_rid lt rid lsl lt.Layout.rid_shift)

  let[@inline] fw1 (lt : Layout.t) ~sid ~rid ~x ~w =
    tag_fw1 lor (check_sid lt sid lsl 3)
    lor (check_rid lt rid lsl lt.Layout.rid_shift)
    lor (check_id lt "x" x lsl lt.Layout.x_shift)
    lor (check_id lt "w" w lsl lt.Layout.w_shift)

  let[@inline] fw2 (lt : Layout.t) ~sid ~rid ~x =
    tag_fw2 lor (check_sid lt sid lsl 3)
    lor (check_rid lt rid lsl lt.Layout.rid_shift)
    lor (check_id lt "x" x lsl lt.Layout.x_shift)

  let[@inline] answer (lt : Layout.t) ~sid = tag_answer lor (check_sid lt sid lsl 3)
end
