open Fba_stdx

type config = { n : int; cols : int; initial : int -> string; str_bits : int; header : int }

let make_config ~n ~initial ~str_bits =
  if n < 1 then invalid_arg "Grid_aetoe.make_config: n < 1";
  if str_bits < 1 then invalid_arg "Grid_aetoe.make_config: str_bits < 1";
  { n; cols = max 1 (Intx.isqrt n); initial; str_bits; header = Fba_sim.Metrics.header_bits ~n }

type msg = Along_row of string | Along_col of string

type state = {
  ctx : Fba_sim.Ctx.t;
  value : string;
  row_tally : Plurality.t;  (* voter: the sender's column *)
  col_tally : Plurality.t;  (* voter: the sender's row *)
  mutable result : string option;
}

let compile _ = ()

let row_of cfg id = id / cfg.cols
let col_of cfg id = id mod cfg.cols

(* [msg] to every node but [id] of the line [first], [first + stride],
   ... below [stop] — a row has stride 1, a column stride [cols] — in
   increasing id order, built back to front in one pass. *)
let line_sends ~id ~first ~stride ~stop msg =
  let sends = ref [] in
  for i = (stop - 1 - first) / stride downto 0 do
    let dst = first + (i * stride) in
    if dst <> id then sends := (dst, msg) :: !sends
  done;
  !sends

let init cfg ctx =
  let id = ctx.Fba_sim.Ctx.id in
  let value = cfg.initial id in
  let st =
    {
      ctx;
      value;
      row_tally = Plurality.create ~voters:cfg.cols;
      col_tally = Plurality.create ~voters:(Intx.cdiv cfg.n cfg.cols);
      result = None;
    }
  in
  (* Own value counts toward both majorities. *)
  Plurality.add st.row_tally ~voter:(col_of cfg id) value;
  let first = row_of cfg id * cfg.cols in
  (st, line_sends ~id ~first ~stride:1 ~stop:(min cfg.n (first + cfg.cols)) (Along_row value))

let on_round cfg st ~round =
  let id = st.ctx.Fba_sim.Ctx.id in
  match round with
  | 2 ->
    (* Row values arrived during round 1: forward the row majority
       down the column. *)
    let maj = Plurality.winner_or st.row_tally ~default:st.value in
    Plurality.add st.col_tally ~voter:(row_of cfg id) maj;
    line_sends ~id ~first:(col_of cfg id) ~stride:cfg.cols ~stop:cfg.n (Along_col maj)
  | 4 ->
    (* Column values arrived during round 3: decide. *)
    if st.result = None then
      st.result <- Some (Plurality.winner_or st.col_tally ~default:st.value);
    []
  | _ -> []

let on_receive cfg st ~round:_ ~src m =
  let id = st.ctx.Fba_sim.Ctx.id in
  (match m with
  | Along_row v ->
    if row_of cfg src = row_of cfg id then Plurality.add st.row_tally ~voter:(col_of cfg src) v
  | Along_col v ->
    if col_of cfg src = col_of cfg id then Plurality.add st.col_tally ~voter:(row_of cfg src) v);
  []

let output st = st.result

let msg_bits cfg (Along_row _ | Along_col _) = cfg.header + cfg.str_bits

let receive_into = None

let msg_tags _cfg = [| "Along_row"; "Along_col" |]
let msg_tag _cfg = function Along_row _ -> 0 | Along_col _ -> 1

let total_rounds = 5
