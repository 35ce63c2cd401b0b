open Fba_stdx

type event =
  | Round_start of { round : int }
  | Send of { round : int; src : int; dst : int; kind : string; bits : int; delay : int }
  | Inject of { round : int; src : int; dst : int; kind : string; bits : int; delay : int }
  | Deliver of { round : int; src : int; dst : int; kind : string; bits : int }
  | Drop of { round : int; src : int; dst : int; kind : string; reason : string }
  | Decide of { round : int; id : int; value : string }

(* Consumers in attach order: attaching is rare, emitting is per event. *)
type sink = { mutable consumers : (event -> unit) list }

let create () = { consumers = [] }

let attach t f = t.consumers <- t.consumers @ [ f ]

let emit t ev = List.iter (fun f -> f ev) t.consumers

module Jsonl = struct
  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let to_string = function
    | Round_start { round } -> Printf.sprintf {|{"ev":"round_start","round":%d}|} round
    | Send { round; src; dst; kind; bits; delay } ->
      Printf.sprintf {|{"ev":"send","round":%d,"src":%d,"dst":%d,"kind":"%s","bits":%d,"delay":%d}|}
        round src dst (escape kind) bits delay
    | Inject { round; src; dst; kind; bits; delay } ->
      Printf.sprintf
        {|{"ev":"inject","round":%d,"src":%d,"dst":%d,"kind":"%s","bits":%d,"delay":%d}|} round
        src dst (escape kind) bits delay
    | Deliver { round; src; dst; kind; bits } ->
      Printf.sprintf {|{"ev":"deliver","round":%d,"src":%d,"dst":%d,"kind":"%s","bits":%d}|}
        round src dst (escape kind) bits
    | Drop { round; src; dst; kind; reason } ->
      Printf.sprintf {|{"ev":"drop","round":%d,"src":%d,"dst":%d,"kind":"%s","reason":"%s"}|}
        round src dst (escape kind) (escape reason)
    | Decide { round; id; value } ->
      Printf.sprintf {|{"ev":"decide","round":%d,"id":%d,"value":"%s"}|} round id (escape value)

  let consumer buf ev =
    Buffer.add_string buf (to_string ev);
    Buffer.add_char buf '\n'

  let writer oc ev =
    output_string oc (to_string ev);
    output_char oc '\n'
end

module Phase_acc = struct
  type row = {
    phase : string;
    first_round : int;
    last_round : int;
    msgs_correct : int;
    msgs_byz : int;
    bits_correct : int;
    bits_byz : int;
    max_sent_bits : int;
    max_recv_bits : int;
    max_fanout : int;
  }

  (* Mutable per-phase cell; per-node arrays sized once at creation
     (phases are few, so the n-sized arrays are cheap). *)
  type cell = {
    c_phase : string;
    mutable c_first : int;
    mutable c_last : int;
    mutable c_msgs_correct : int;
    mutable c_msgs_byz : int;
    mutable c_bits_correct : int;
    mutable c_bits_byz : int;
    sent_bits : int array;  (* per correct-sender node *)
    recv_bits : int array;
    sent_msgs : int array;
  }

  type t = {
    n : int;
    classify : kind:string -> string;
    cells : (string, cell) Hashtbl.t;
    mutable order : cell list;  (* reversed first-attribution order *)
  }

  let create ?(classify = fun ~kind -> kind) ~n () =
    { n; classify; cells = Hashtbl.create 8; order = [] }

  let cell t ~round kind =
    let name = t.classify ~kind in
    match Hashtbl.find_opt t.cells name with
    | Some c -> c
    | None ->
      let c =
        {
          c_phase = name;
          c_first = round;
          c_last = round;
          c_msgs_correct = 0;
          c_msgs_byz = 0;
          c_bits_correct = 0;
          c_bits_byz = 0;
          sent_bits = Array.make t.n 0;
          recv_bits = Array.make t.n 0;
          sent_msgs = Array.make t.n 0;
        }
      in
      Hashtbl.add t.cells name c;
      t.order <- c :: t.order;
      c

  let touch c round =
    if round < c.c_first then c.c_first <- round;
    if round > c.c_last then c.c_last <- round

  let consumer t = function
    | Send { round; src; kind; bits; _ } ->
      let c = cell t ~round kind in
      touch c round;
      c.c_msgs_correct <- c.c_msgs_correct + 1;
      c.c_bits_correct <- c.c_bits_correct + bits;
      c.sent_bits.(src) <- c.sent_bits.(src) + bits;
      c.sent_msgs.(src) <- c.sent_msgs.(src) + 1
    | Inject { round; kind; bits; _ } ->
      let c = cell t ~round kind in
      touch c round;
      c.c_msgs_byz <- c.c_msgs_byz + 1;
      c.c_bits_byz <- c.c_bits_byz + bits
    | Deliver { round; dst; kind; bits; _ } ->
      let c = cell t ~round kind in
      touch c round;
      c.recv_bits.(dst) <- c.recv_bits.(dst) + bits
    | Round_start _ | Drop _ | Decide _ -> ()

  let row_of c =
    let amax a = Array.fold_left max 0 a in
    {
      phase = c.c_phase;
      first_round = c.c_first;
      last_round = c.c_last;
      msgs_correct = c.c_msgs_correct;
      msgs_byz = c.c_msgs_byz;
      bits_correct = c.c_bits_correct;
      bits_byz = c.c_bits_byz;
      max_sent_bits = amax c.sent_bits;
      max_recv_bits = amax c.recv_bits;
      max_fanout = amax c.sent_msgs;
    }

  let rows t = List.rev_map row_of t.order

  let total_bits t =
    List.fold_left (fun acc r -> acc + r.bits_correct + r.bits_byz) 0 (rows t)

  let total_messages t =
    List.fold_left (fun acc r -> acc + r.msgs_correct + r.msgs_byz) 0 (rows t)

  let render t =
    let tbl =
      Table.create
        ~columns:
          [
            ("phase", Table.Left); ("rounds", Table.Right); ("msgs", Table.Right);
            ("byz msgs", Table.Right); ("bits/node", Table.Right); ("max fanout", Table.Right);
            ("max recv bits", Table.Right);
          ]
    in
    let span first last = if first = last then string_of_int first
      else Printf.sprintf "%d-%d" first last
    in
    let rs = rows t in
    List.iter
      (fun r ->
        Table.add_row tbl
          [
            r.phase; span r.first_round r.last_round; Table.cell_int r.msgs_correct;
            Table.cell_int r.msgs_byz;
            Table.cell_float ~decimals:1
              (float_of_int r.bits_correct /. float_of_int (max 1 t.n));
            Table.cell_int r.max_fanout; Table.cell_int r.max_recv_bits;
          ])
      rs;
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
    let fmax f = List.fold_left (fun acc r -> max acc (f r)) 0 rs in
    let first = List.fold_left (fun acc r -> min acc r.first_round) max_int rs in
    Table.add_row tbl
      [
        "total";
        (if rs = [] then "-" else span first (fmax (fun r -> r.last_round)));
        Table.cell_int (sum (fun r -> r.msgs_correct));
        Table.cell_int (sum (fun r -> r.msgs_byz));
        Table.cell_float ~decimals:1
          (float_of_int (sum (fun r -> r.bits_correct)) /. float_of_int (max 1 t.n));
        Table.cell_int (fmax (fun r -> r.max_fanout));
        Table.cell_int (fmax (fun r -> r.max_recv_bits));
      ];
    Table.to_markdown tbl
end
