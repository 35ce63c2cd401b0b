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

module Tally = struct
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
  type phase = {
    p_name : string;
    mutable p_first : int;
    mutable p_last : int;
    mutable p_msgs_correct : int;
    mutable p_msgs_byz : int;
    mutable p_bits_correct : int;
    mutable p_bits_byz : int;
    sent_bits : int array;  (* per correct-sender node *)
    recv_bits : int array;
    sent_msgs : int array;
  }

  (* Per-kind cell: the phase the kind classifies into, resolved once,
     and its deliveries per round. *)
  type kind = {
    k_name : string;
    k_phase : phase;
    mutable per_round : int array;  (* index = round, grown geometrically *)
    mutable delivered : int;
  }

  type t = {
    n : int;
    classify : kind:string -> string;
    kinds : (string, kind) Hashtbl.t;
    phases : (string, phase) Hashtbl.t;
    mutable order : phase list;  (* reversed first-attribution order *)
    mutable last_delivery : int;  (* highest Deliver round, -1 before any *)
    drops : (string, int) Hashtbl.t;
  }

  let create ?(classify = fun ~kind -> kind) ~n () =
    {
      n;
      classify;
      kinds = Hashtbl.create 8;
      phases = Hashtbl.create 8;
      order = [];
      last_delivery = -1;
      drops = Hashtbl.create 8;
    }

  let phase t ~round name =
    match Hashtbl.find_opt t.phases name with
    | Some p -> p
    | None ->
      let p =
        {
          p_name = name;
          p_first = round;
          p_last = round;
          p_msgs_correct = 0;
          p_msgs_byz = 0;
          p_bits_correct = 0;
          p_bits_byz = 0;
          sent_bits = Array.make t.n 0;
          recv_bits = Array.make t.n 0;
          sent_msgs = Array.make t.n 0;
        }
      in
      Hashtbl.add t.phases name p;
      t.order <- p :: t.order;
      p

  (* Kind [name]'s cell, with its phase's round span stretched to
     [round]. *)
  let touch t ~round name =
    let k =
      match Hashtbl.find_opt t.kinds name with
      | Some k -> k
      | None ->
        let k =
          {
            k_name = name;
            k_phase = phase t ~round (t.classify ~kind:name);
            per_round = [||];
            delivered = 0;
          }
        in
        Hashtbl.add t.kinds name k;
        k
    in
    let p = k.k_phase in
    if round < p.p_first then p.p_first <- round;
    if round > p.p_last then p.p_last <- round;
    k

  let deliver t k round =
    if round >= Array.length k.per_round then begin
      let a = Array.make (max (round + 1) (2 * Array.length k.per_round)) 0 in
      Array.blit k.per_round 0 a 0 (Array.length k.per_round);
      k.per_round <- a
    end;
    k.per_round.(round) <- k.per_round.(round) + 1;
    k.delivered <- k.delivered + 1;
    if round > t.last_delivery then t.last_delivery <- round

  let consumer t = function
    | Send { round; src; kind = name; bits; _ } ->
      let p = (touch t ~round name).k_phase in
      p.p_msgs_correct <- p.p_msgs_correct + 1;
      p.p_bits_correct <- p.p_bits_correct + bits;
      p.sent_bits.(src) <- p.sent_bits.(src) + bits;
      p.sent_msgs.(src) <- p.sent_msgs.(src) + 1
    | Inject { round; kind = name; bits; _ } ->
      let p = (touch t ~round name).k_phase in
      p.p_msgs_byz <- p.p_msgs_byz + 1;
      p.p_bits_byz <- p.p_bits_byz + bits
    | Deliver { round; dst; kind = name; bits; _ } ->
      let k = touch t ~round name in
      k.k_phase.recv_bits.(dst) <- k.k_phase.recv_bits.(dst) + bits;
      deliver t k round
    | Drop { reason; _ } ->
      Hashtbl.replace t.drops reason
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.drops reason))
    | Round_start _ | Decide _ -> ()

  (* --- Phase timeline --- *)

  let row_of p =
    let amax a = Array.fold_left max 0 a in
    {
      phase = p.p_name;
      first_round = p.p_first;
      last_round = p.p_last;
      msgs_correct = p.p_msgs_correct;
      msgs_byz = p.p_msgs_byz;
      bits_correct = p.p_bits_correct;
      bits_byz = p.p_bits_byz;
      max_sent_bits = amax p.sent_bits;
      max_recv_bits = amax p.recv_bits;
      max_fanout = amax p.sent_msgs;
    }

  let rows t = List.rev_map row_of t.order

  let total_bits t =
    List.fold_left (fun acc p -> acc + p.p_bits_correct + p.p_bits_byz) 0 t.order

  let render_phases t =
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

  (* --- Deliveries per round, by kind ---

     One row per round, one right-aligned count column per delivered
     kind (sorted), and a stable trailing "total" row, present even
     when nothing was delivered so downstream parsers can rely on it. *)

  let deliveries_table t =
    let ks =
      List.sort
        (fun a b -> String.compare a.k_name b.k_name)
        (Hashtbl.fold (fun _ k acc -> if k.delivered > 0 then k :: acc else acc) t.kinds [])
    in
    let tbl =
      Table.create
        ~columns:(("round", Table.Right) :: List.map (fun k -> (k.k_name, Table.Right)) ks)
    in
    let count k round = if round < Array.length k.per_round then k.per_round.(round) else 0 in
    for round = 0 to t.last_delivery do
      Table.add_row tbl
        (string_of_int round :: List.map (fun k -> string_of_int (count k round)) ks)
    done;
    Table.add_row tbl ("total" :: List.map (fun k -> string_of_int k.delivered) ks);
    tbl

  let render_deliveries t = Table.to_markdown (deliveries_table t)

  let deliveries_csv t = Table.to_csv (deliveries_table t)

  (* --- Drops by reason --- *)

  let drops t =
    List.sort (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun reason count acc -> (reason, count) :: acc) t.drops [])
end
