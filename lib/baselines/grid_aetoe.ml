open Fba_stdx

type config = { n : int; cols : int; initial : int -> string; str_bits : int }

let make_config ~n ~initial ~str_bits =
  if n < 1 then invalid_arg "Grid_aetoe.make_config: n < 1";
  if str_bits < 1 then invalid_arg "Grid_aetoe.make_config: str_bits < 1";
  { n; cols = max 1 (Intx.isqrt n); initial; str_bits }

type msg = Along_row of string | Along_col of string

type state = {
  ctx : Fba_sim.Ctx.t;
  value : string;
  row_tally : Plurality.t;
  col_tally : Plurality.t;
  mutable result : string option;
}

let name = "grid-aetoe"
let compile _ = ()

let row_of cfg id = id / cfg.cols
let col_of cfg id = id mod cfg.cols

let row_members cfg r =
  let first = r * cfg.cols in
  let len = min cfg.cols (cfg.n - first) in
  Array.init (max 0 len) (fun i -> first + i)

let col_members cfg c =
  let rows = Intx.cdiv cfg.n cfg.cols in
  let acc = ref [] in
  for r = rows - 1 downto 0 do
    let id = (r * cfg.cols) + c in
    if id < cfg.n then acc := id :: !acc
  done;
  Array.of_list !acc

let init cfg ctx =
  let id = ctx.Fba_sim.Ctx.id in
  let value = cfg.initial id in
  let st =
    { ctx; value; row_tally = Plurality.create (); col_tally = Plurality.create (); result = None }
  in
  (* Own value counts toward both majorities. *)
  Plurality.add st.row_tally ~src:id value;
  let msg = Along_row value in
  let sends =
    Array.to_list
      (Array.map (fun dst -> (dst, msg)) (row_members cfg (row_of cfg id)))
  in
  (st, List.filter (fun (dst, _) -> dst <> id) sends)

let on_round cfg st ~round =
  let id = st.ctx.Fba_sim.Ctx.id in
  match round with
  | 2 ->
    (* Row values arrived during round 1: forward the row majority
       down the column. *)
    let maj = Plurality.winner_or st.row_tally ~default:st.value in
    Plurality.add st.col_tally ~src:id maj;
    let msg = Along_col maj in
    Array.to_list
      (Array.map (fun dst -> (dst, msg)) (col_members cfg (col_of cfg id)))
    |> List.filter (fun (dst, _) -> dst <> id)
  | 4 ->
    (* Column values arrived during round 3: decide. *)
    if st.result = None then
      st.result <- Some (Plurality.winner_or st.col_tally ~default:st.value);
    []
  | _ -> []

let on_receive cfg st ~round:_ ~src m =
  let id = st.ctx.Fba_sim.Ctx.id in
  (match m with
  | Along_row v -> if row_of cfg src = row_of cfg id then Plurality.add st.row_tally ~src v
  | Along_col v -> if col_of cfg src = col_of cfg id then Plurality.add st.col_tally ~src v);
  []

let output st = st.result

let msg_bits cfg (Along_row _ | Along_col _) = Fba_sim.Metrics.header_bits ~n:cfg.n + cfg.str_bits

let receive_into = None

let pp_msg _cfg fmt = function
  | Along_row _ -> Format.fprintf fmt "Along_row"
  | Along_col _ -> Format.fprintf fmt "Along_col"

let msg_tags _cfg = [| "Along_row"; "Along_col" |]
let msg_tag _cfg = function Along_row _ -> 0 | Along_col _ -> 1

let total_rounds = 5
