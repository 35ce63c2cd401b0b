open Fba_stdx

type config = { n : int; fanout : int; initial : int -> string; str_bits : int; header : int }

let make_config ~n ~initial ~str_bits =
  if n < 2 then invalid_arg "Naive_aetoe.make_config: n < 2";
  if str_bits < 1 then invalid_arg "Naive_aetoe.make_config: str_bits < 1";
  {
    n;
    fanout = min (n - 1) ((4 * Intx.ceil_log2 n) + 1);
    initial;
    str_bits;
    header = Fba_sim.Metrics.header_bits ~n;
  }

type msg = Query | Reply of string

type state = {
  ctx : Fba_sim.Ctx.t;
  value : string;
  queried : int array;
  replies : Plurality.t;
  answered : (int, unit) Hashtbl.t;
  mutable result : string option;
}

let compile _ = ()

let init cfg ctx =
  let id = ctx.Fba_sim.Ctx.id in
  let value = cfg.initial id in
  let queried = Prng.sample_others ctx.Fba_sim.Ctx.rng ~n:cfg.n ~k:cfg.fanout ~self:id in
  let st =
    {
      ctx;
      value;
      queried;
      replies = Plurality.create ~voters:(Array.length queried);
      answered = Hashtbl.create 16;
      result = None;
    }
  in
  (st, Array.to_list (Array.map (fun dst -> (dst, Query)) queried))

let on_round _cfg st ~round =
  if round = 3 && st.result = None then begin
    (* Replies arrived during round 2; adopt the plurality, falling
       back to the own value when the sample was empty. *)
    st.result <- Some (Plurality.winner_or st.replies ~default:st.value)
  end;
  []

let on_receive _cfg st ~round:_ ~src m =
  match m with
  | Query ->
    (* Reply unconditionally — the vulnerability under study. One
       reply per querier. *)
    if Hashtbl.mem st.answered src then []
    else begin
      Hashtbl.add st.answered src ();
      [ (src, Reply st.value) ]
    end
  | Reply v ->
    (if st.result = None then
       match Array.find_index (Int.equal src) st.queried with
       | Some voter -> Plurality.add st.replies ~voter v
       | None -> ());
    []

let output st = st.result

let msg_bits cfg = function Query -> cfg.header | Reply _ -> cfg.header + cfg.str_bits

let receive_into = None

let msg_tags _cfg = [| "Query"; "Reply" |]
let msg_tag _cfg = function Query -> 0 | Reply _ -> 1

let total_rounds = 3

let queries_answered st = Hashtbl.length st.answered

let flood_adversary cfg ~corrupted =
  let act ~round ~observed:_ =
    if round <> 0 then []
    else begin
      let outs = ref [] in
      Fba_stdx.Bitset.iter
        (fun a ->
          for dst = 0 to cfg.n - 1 do
            outs := Fba_sim.Envelope.make ~src:a ~dst Query :: !outs
          done)
        corrupted;
      !outs
    end
  in
  { Fba_sim.Sync_engine.corrupted; act }
