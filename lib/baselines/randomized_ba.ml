open Fba_stdx

type coin = [ `Local | `Common of int64 ]

type config = {
  n : int;
  t_assumed : int;
  coin : coin;
  inputs : int -> bool;
  max_logical_rounds : int;
  header : int;
}

let make_config ?(max_logical_rounds = 64) ~n ~t_assumed ~coin ~inputs () =
  if n < 2 then invalid_arg "Randomized_ba.make_config: n < 2";
  if t_assumed < 0 || 5 * t_assumed >= n then
    invalid_arg "Randomized_ba.make_config: need 5*t_assumed < n";
  if max_logical_rounds < 1 then
    invalid_arg "Randomized_ba.make_config: max_logical_rounds < 1";
  { n; t_assumed; coin; inputs; max_logical_rounds; header = Fba_sim.Metrics.header_bits ~n }

type msg =
  | Report of { k : int; b : bool }
  | Proposal of { k : int; p : bool option }

(* Per logical round: dedup senders (one bit per node id), count
   reports per bit and proposals per bit/abstain. *)
type round_tally = {
  rep_seen : Bitset.t;
  mutable rep : int array;  (* rep.(0), rep.(1) *)
  prop_seen : Bitset.t;
  mutable prop : int array;  (* prop.(0), prop.(1) *)
}

let fresh_round n =
  {
    rep_seen = Bitset.create n;
    rep = [| 0; 0 |];
    prop_seen = Bitset.create n;
    prop = [| 0; 0 |];
  }

type state = {
  ctx : Fba_sim.Ctx.t;
  mutable v : bool;
  tallies : (int, round_tally) Hashtbl.t;
  mutable result : string option;
}

let compile _ = ()

let tally cfg st k =
  match Hashtbl.find_opt st.tallies k with
  | Some t -> t
  | None ->
    let t = fresh_round cfg.n in
    Hashtbl.add st.tallies k t;
    t

let broadcast cfg m = List.init cfg.n (fun dst -> (dst, m))

let coin_flip cfg st k =
  match cfg.coin with
  | `Local -> Prng.bool st.ctx.Fba_sim.Ctx.rng
  | `Common seed ->
    Int64.logand (Hash64.finish (Hash64.add_int (Hash64.init seed) k)) 1L = 1L

let init cfg ctx =
  let id = ctx.Fba_sim.Ctx.id in
  let st = { ctx; v = cfg.inputs id; tallies = Hashtbl.create 16; result = None } in
  (st, broadcast cfg (Report { k = 0; b = st.v }))

let on_round cfg st ~round =
  if round mod 4 = 2 && round / 4 < cfg.max_logical_rounds then begin
    (* Reports of logical round k arrived during round 4k+1. *)
    let k = round / 4 in
    let t = tally cfg st k in
    let threshold = (cfg.n + cfg.t_assumed) / 2 in
    let p =
      if t.rep.(1) > threshold then Some true
      else if t.rep.(0) > threshold then Some false
      else None
    in
    broadcast cfg (Proposal { k; p })
  end
  else if round mod 4 = 0 && round > 0 && round / 4 <= cfg.max_logical_rounds then begin
    (* Proposals of logical round k−1 arrived during round 4(k−1)+3. *)
    let k = (round / 4) - 1 in
    let t = tally cfg st k in
    let decide_threshold = (2 * cfg.t_assumed) + 1 in
    let adopt_threshold = cfg.t_assumed + 1 in
    (if t.prop.(1) >= decide_threshold then begin
       if st.result = None then st.result <- Some "1";
       st.v <- true
     end
     else if t.prop.(0) >= decide_threshold then begin
       if st.result = None then st.result <- Some "0";
       st.v <- false
     end
     else if t.prop.(1) >= adopt_threshold then st.v <- true
     else if t.prop.(0) >= adopt_threshold then st.v <- false
     else if st.result = None then st.v <- coin_flip cfg st k);
    if round / 4 < cfg.max_logical_rounds then
      broadcast cfg (Report { k = round / 4; b = st.v })
    else []
  end
  else []

let on_receive cfg st ~round:_ ~src m =
  (match m with
  | Report { k; b } ->
    if k >= 0 && k < cfg.max_logical_rounds then begin
      let t = tally cfg st k in
      if not (Bitset.mem t.rep_seen src) then begin
        Bitset.add t.rep_seen src;
        let i = if b then 1 else 0 in
        t.rep.(i) <- t.rep.(i) + 1
      end
    end
  | Proposal { k; p } ->
    if k >= 0 && k < cfg.max_logical_rounds then begin
      let t = tally cfg st k in
      if not (Bitset.mem t.prop_seen src) then begin
        Bitset.add t.prop_seen src;
        match p with
        | Some b ->
          let i = if b then 1 else 0 in
          t.prop.(i) <- t.prop.(i) + 1
        | None -> ()
      end
    end);
  []

let output st = st.result

let msg_bits cfg = function
  | Report _ -> cfg.header + 8 + 1
  | Proposal _ -> cfg.header + 8 + 2

let receive_into = None

let msg_tags _cfg = [| "Report"; "Proposal" |]
let msg_tag _cfg = function Report _ -> 0 | Proposal _ -> 1

let max_engine_rounds cfg = (4 * cfg.max_logical_rounds) + 4

let split_vote_adversary cfg ~corrupted =
  let act ~round ~observed:_ =
    if round mod 4 = 0 && round / 4 < cfg.max_logical_rounds then begin
      let k = round / 4 in
      let outs = ref [] in
      Fba_stdx.Bitset.iter
        (fun a ->
          for dst = 0 to cfg.n - 1 do
            let b = dst mod 2 = 0 in
            outs := Fba_sim.Envelope.make ~src:a ~dst (Report { k; b }) :: !outs
          done)
        corrupted;
      !outs
    end
    else []
  in
  { Fba_sim.Sync_engine.corrupted; act }
