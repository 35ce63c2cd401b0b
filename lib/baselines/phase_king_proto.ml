module Phase_king = Fba_aeba.Phase_king

type config = {
  n : int;
  members : int array;
  initial : int -> string;
  str_bits : int;
  header : int;
}

let make_config ~n ~initial ~str_bits =
  if n < 1 then invalid_arg "Phase_king_proto.make_config: n < 1";
  if str_bits < 1 then invalid_arg "Phase_king_proto.make_config: str_bits < 1";
  {
    n;
    members = Array.init n (fun i -> i);
    initial;
    str_bits;
    header = Fba_sim.Metrics.header_bits ~n;
  }

type msg = Phase_king.msg

type state = { pk : Phase_king.t; mutable result : string option }

let compile _ = ()

let init cfg ctx =
  let id = ctx.Fba_sim.Ctx.id in
  let pk = Phase_king.create ~members:cfg.members ~me:id ~initial:(cfg.initial id) in
  ({ pk; result = None }, [])

let on_round _cfg st ~round =
  (* The engine's round 1 is the machine's local round 0. *)
  let local = round - 1 in
  if local < 0 then []
  else begin
    let outs = Phase_king.on_round st.pk ~round:local in
    if st.result = None then st.result <- Phase_king.output st.pk;
    outs
  end

let on_receive _cfg st ~round ~src m =
  Phase_king.on_receive st.pk ~round:(round - 1) ~src m;
  []

let output st = st.result

let msg_bits cfg (Phase_king.Value _ | Phase_king.King _) =
  cfg.header + 8 + cfg.str_bits

let receive_into = None

let msg_tags _cfg = [| "Value"; "King" |]
let msg_tag _cfg = function Phase_king.Value _ -> 0 | Phase_king.King _ -> 1

let total_rounds cfg =
  let t = (cfg.n - 1) / 3 in
  (4 * (t + 1)) + 2
