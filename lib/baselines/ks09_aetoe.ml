open Fba_stdx

type config = { n : int; fanout : int; initial : int -> string; str_bits : int }

let make_config ~n ~initial ~str_bits =
  if n < 2 then invalid_arg "Ks09_aetoe.make_config: n < 2";
  if str_bits < 1 then invalid_arg "Ks09_aetoe.make_config: str_bits < 1";
  let log_n = Intx.ceil_log2 n in
  let fanout =
    Intx.clamp ~lo:1 ~hi:(n - 1) (max ((2 * log_n) + 1) (Intx.isqrt n * log_n / 4))
  in
  { n; fanout; initial; str_bits }

type msg = Push of string

type state = {
  ctx : Fba_sim.Ctx.t;
  value : string;
  pushes : Plurality.t;
  mutable result : string option;
}

let compile _ = ()

let init cfg ctx =
  let id = ctx.Fba_sim.Ctx.id in
  let value = cfg.initial id in
  let st = { ctx; value; pushes = Plurality.create ~voters:cfg.n; result = None } in
  let targets = Prng.sample_others ctx.Fba_sim.Ctx.rng ~n:cfg.n ~k:cfg.fanout ~self:id in
  (st, Array.to_list (Array.map (fun dst -> (dst, Push value)) targets))

let on_round _cfg st ~round =
  if round = 2 && st.result = None then begin
    (* Pushes arrived during round 1: adopt the plurality, own value
       when none arrived. *)
    st.result <- Some (Plurality.winner_or st.pushes ~default:st.value)
  end;
  []

let on_receive _cfg st ~round:_ ~src (Push v) =
  (* One counted push per sender — but no membership filter: this is
     the vulnerability AER's sampler I closes. *)
  Plurality.add st.pushes ~voter:src v;
  []

let output st = st.result

let msg_bits cfg (Push _) = Fba_sim.Metrics.header_bits ~n:cfg.n + cfg.str_bits

let receive_into = None

let msg_tags _cfg = [| "Push" |]
let msg_tag _cfg (Push _) = 0

let total_rounds = 3

let flood_adversary ?(victims = 4) cfg ~corrupted =
  (* Victims: the first correct identities. *)
  let victim_ids =
    let acc = ref [] and i = ref 0 in
    while List.length !acc < victims && !i < cfg.n do
      if not (Fba_stdx.Bitset.mem corrupted !i) then acc := !i :: !acc;
      incr i
    done;
    Array.of_list (List.rev !acc)
  in
  let act ~round ~observed:_ =
    if round <> 0 || Array.length victim_ids = 0 then []
    else begin
      let outs = ref [] in
      let k = ref 0 in
      Fba_stdx.Bitset.iter
        (fun a ->
          (* Spend the same per-node budget as honest nodes, but all of
             it on the victims, with per-sender-distinct junk. *)
          for j = 1 to cfg.fanout do
            let dst = victim_ids.(!k mod Array.length victim_ids) in
            incr k;
            let junk = Printf.sprintf "junk-%d-%d" a j in
            outs := Fba_sim.Envelope.make ~src:a ~dst (Push junk) :: !outs
          done)
        corrupted;
      !outs
    end
  in
  { Fba_sim.Sync_engine.corrupted; act }
