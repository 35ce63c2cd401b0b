open Fba_stdx

type msg = Value of string | King of string

(* Four local rounds per phase, leaving one round of slack for the
   engine's send-at-r/deliver-at-r+1 lag:
     4k    broadcast Value
     4k+1  (values delivered, tallied)
     4k+2  the phase king broadcasts its plurality
     4k+3  (king value delivered)
     4k+4  apply the king rule, start the next phase (or finish). *)

type t = {
  members : int array;
  member_set : (int, int) Hashtbl.t;  (* id -> slot *)
  me : int;
  faults : int;  (* tolerated faults: largest t with 3t < |members| *)
  mutable value : string;
  mutable cur_phase : int;
  mutable values : Plurality.t;  (* this phase's Value votes *)
  mutable king_value : string option;  (* this phase's King proposal *)
  mutable done_ : bool;
}

let create ~members ~me ~initial =
  if Array.length members = 0 then invalid_arg "Phase_king.create: empty member set";
  let member_set = Hashtbl.create (Array.length members) in
  Array.iteri (fun slot id -> if not (Hashtbl.mem member_set id) then Hashtbl.add member_set id slot) members;
  if not (Hashtbl.mem member_set me) then invalid_arg "Phase_king.create: me not a member";
  {
    members;
    member_set;
    me;
    faults = (Array.length members - 1) / 3;
    value = initial;
    cur_phase = 0;
    values = Plurality.create ~voters:(Array.length members);
    king_value = None;
    done_ = false;
  }

let phases t = t.faults + 1

let rounds_needed t = 4 * phases t

let king_of t phase = t.members.(phase mod Array.length t.members)

let broadcast t m = Array.fold_right (fun id outs -> (id, m) :: outs) t.members []

let apply_king_rule t =
  let m = Array.length t.members in
  let keep_threshold = m - t.faults in
  match Plurality.winner t.values with
  | None ->
    (* Nothing received (all peers faulty): keep the current value. *)
    ()
  | Some maj ->
    if Plurality.winner_votes t.values >= keep_threshold then t.value <- maj
    else begin
      match t.king_value with
      | Some kv -> t.value <- kv
      | None -> t.value <- maj (* faulty king stayed silent *)
    end

let on_round t ~round =
  if t.done_ || round < 0 then []
  else if round >= rounds_needed t then begin
    if not t.done_ then begin
      apply_king_rule t;
      t.done_ <- true
    end;
    []
  end
  else begin
    match round mod 4 with
    | 0 ->
      if round > 0 then begin
        apply_king_rule t;
        t.cur_phase <- round / 4;
        t.values <- Plurality.create ~voters:(Array.length t.members);
        t.king_value <- None
      end;
      broadcast t (Value t.value)
    | 2 ->
      if king_of t t.cur_phase = t.me then
        broadcast t (King (Plurality.winner_or t.values ~default:t.value))
      else []
    | _ -> []
  end

let on_receive t ~round:_ ~src msg =
  if not t.done_ then
    match Hashtbl.find_opt t.member_set src with
    | None -> ()
    | Some voter -> (
      match msg with
      | Value v -> Plurality.add t.values ~voter v
      | King v ->
        if src = king_of t t.cur_phase && t.king_value = None then t.king_value <- Some v)

let current t = t.value

let finished t ~round = round >= rounds_needed t

let output t = if t.done_ then Some t.value else None
