open Fba_stdx

type config = {
  n : int;
  members : int array;
  slot_of : (int, int) Hashtbl.t;  (* node id -> committee slot *)
  relays : int;
  initial : int -> string;
  str_bits : int;
  header : int;
}

let make_config ~n ~seed ~initial ~str_bits () =
  if n < 2 then invalid_arg "Committee_relay.make_config: n < 2";
  if str_bits < 1 then invalid_arg "Committee_relay.make_config: str_bits < 1";
  let size = Intx.clamp ~lo:1 ~hi:n (int_of_float (ceil (2.0 *. sqrt (float_of_int n)))) in
  let sampler =
    Fba_samplers.Sampler.create
      ~seed:(Hash64.finish (Hash64.add_int (Hash64.init seed) 0x5e1))
      ~n ~d:size
  in
  let members = Fba_samplers.Sampler.quorum_xr sampler ~x:0 ~r:0L in
  let slot_of = Hashtbl.create size in
  Array.iteri (fun slot id -> if not (Hashtbl.mem slot_of id) then Hashtbl.add slot_of id slot) members;
  let relays = min size ((2 * Intx.ceil_log2 (max 2 n)) + 1) in
  { n; members; slot_of; relays; initial; str_bits; header = Fba_sim.Metrics.header_bits ~n }

let committee cfg = cfg.members

(* Relay j of node x: a deterministic stride through the committee, so
   a relay can enumerate its assigned nodes without any request
   traffic. *)
let relay_slot cfg ~x ~j = (x + 1 + (j * ((Array.length cfg.members / cfg.relays) + 1)))
                           mod Array.length cfg.members

let is_relay_of cfg ~slot ~x =
  let rec loop j = j < cfg.relays && (relay_slot cfg ~x ~j = slot || loop (j + 1)) in
  loop 0

type msg = Exchange of string | Deliver of string

type state = {
  ctx : Fba_sim.Ctx.t;
  slot : int option;  (* my committee slot, if a member *)
  exchange_tally : Plurality.t;
  deliver_tally : Plurality.t;
  mutable result : string option;
}

let compile _ = ()

let init cfg ctx =
  let id = ctx.Fba_sim.Ctx.id in
  let slot = Hashtbl.find_opt cfg.slot_of id in
  let st =
    {
      ctx;
      slot;
      exchange_tally = Plurality.create ~voters:(Array.length cfg.members);
      deliver_tally = Plurality.create ~voters:(Array.length cfg.members);
      result = None;
    }
  in
  let outs =
    match slot with
    | None -> []
    | Some slot ->
      let v = cfg.initial id in
      Plurality.add st.exchange_tally ~voter:slot v;
      Array.fold_right
        (fun dst outs -> if dst = id then outs else (dst, Exchange v) :: outs)
        cfg.members []
  in
  (st, outs)

let on_round cfg st ~round =
  let id = st.ctx.Fba_sim.Ctx.id in
  match round with
  | 2 ->
    (* Exchanges arrived during round 1: members adopt the committee
       majority and push it to their assigned nodes. *)
    (match st.slot with
    | None -> []
    | Some slot ->
      let v = Plurality.winner_or st.exchange_tally ~default:(cfg.initial id) in
      let outs = ref [] in
      for x = 0 to cfg.n - 1 do
        if is_relay_of cfg ~slot ~x then outs := (x, Deliver v) :: !outs
      done;
      !outs)
  | 4 ->
    if st.result = None then
      st.result <- Some (Plurality.winner_or st.deliver_tally ~default:(cfg.initial id));
    []
  | _ -> []

let on_receive cfg st ~round:_ ~src m =
  let id = st.ctx.Fba_sim.Ctx.id in
  (match m with
  | Exchange v ->
    (match (st.slot, Hashtbl.find_opt cfg.slot_of src) with
    | Some _, Some voter -> Plurality.add st.exchange_tally ~voter v
    | _ -> ())
  | Deliver v ->
    (match Hashtbl.find_opt cfg.slot_of src with
    | Some slot when is_relay_of cfg ~slot ~x:id -> Plurality.add st.deliver_tally ~voter:slot v
    | _ -> ()));
  []

let output st = st.result

let msg_bits cfg (Exchange _ | Deliver _) = cfg.header + cfg.str_bits

let receive_into = None

let msg_tags _cfg = [| "Exchange"; "Deliver" |]
let msg_tag _cfg = function Exchange _ -> 0 | Deliver _ -> 1

let total_rounds = 5
