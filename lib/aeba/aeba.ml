open Fba_stdx

type config = {
  n : int;
  seed : int64;
  tree : Committee_tree.t;
  contrib_bits : int;
  pk_rounds : int;  (* local rounds of each phase-king instance *)
  t_pk_end : int;  (* global round at which the root holds gstring *)
  rounds_total : int;
  header : int;
}

(* Smallest committee size m such that a uniformly sampled committee
   contains >= ceil(m/3) Byzantine members (which would defeat
   phase-king) with probability at most [budget]. *)
let size_committee ~byzantine_fraction ~budget =
  let rec search m =
    if m >= 200 then m
    else begin
      let bad =
        Stats.binomial_tail ~trials:m ~p:byzantine_fraction ~at_least:(((m - 1) / 3) + 1)
      in
      if bad <= budget then m else search (m + 3)
    end
  in
  search 7

let make_config ?(byzantine_fraction = 0.1) ~n ~seed () =
  if n < 2 then invalid_arg "Aeba.make_config: n < 2";
  (* Phase-king in each committee needs n > 3t. *)
  if byzantine_fraction < 0.0 || byzantine_fraction >= 1.0 /. 3.0 then
    invalid_arg "Aeba.make_config: byzantine_fraction must be in [0, 1/3)";
  let m = min n (size_committee ~byzantine_fraction ~budget:0.005) in
  let tree = Committee_tree.build ~n ~seed ~group_size:m ~committee_size:m in
  let m = Committee_tree.committee_size tree in
  let contrib_bits = Intx.cdiv (8 * Intx.ceil_log2 (max 2 n)) m in
  let pk_phases = ((m - 1) / 3) + 1 in
  let pk_rounds = 4 * pk_phases in
  let t_pk_end = 2 + pk_rounds in
  let rounds_total = t_pk_end + (2 * Committee_tree.levels tree) + 2 in
  {
    n;
    seed;
    tree;
    contrib_bits;
    pk_rounds;
    t_pk_end;
    rounds_total;
    header = Fba_sim.Metrics.header_bits ~n;
  }

let config_tree c = c.tree

let contrib_bytes c = (c.contrib_bits + 7) / 8

(* gstring is the concatenation of one byte-padded contribution per
   root-committee slot. *)
let config_gstring_bits c =
  8 * contrib_bytes c * Array.length (Committee_tree.root c.tree)

let total_rounds c = c.rounds_total

type msg =
  | Contrib of { slot : int; v : string }
  | Pk of { slot : int; inner : Phase_king.msg }
  | Relay of { level : int; index : int; v : string }
  | Inform of { v : string }

type state = {
  ctx : Fba_sim.Ctx.t;
  root_slot : int option;  (* my slot in the root committee, if any *)
  contribs : string option array;  (* received root contributions by slot *)
  mutable pk : Phase_king.t array;  (* one instance per root slot, from round 2 *)
  committee_values : (int * int, string) Hashtbl.t;  (* adopted per committee *)
  relay_tallies : (int * int, Plurality.t) Hashtbl.t;
  inform_tally : Plurality.t;
  mutable result : string option;
}

let compile _ = ()

let root_slot_of tree id =
  let root = Committee_tree.root tree in
  let slot = ref None in
  Array.iteri (fun i m -> if m = id && !slot = None then slot := Some i) root;
  !slot

let default_contrib cfg = String.make ((cfg.contrib_bits + 7) / 8) '\000'

let init cfg ctx =
  let id = ctx.Fba_sim.Ctx.id in
  let root = Committee_tree.root cfg.tree in
  let root_slot = root_slot_of cfg.tree id in
  let st =
    {
      ctx;
      root_slot;
      contribs = Array.make (Array.length root) None;
      pk = [||];
      committee_values = Hashtbl.create 4;
      relay_tallies = Hashtbl.create 4;
      inform_tally = Plurality.create ~voters:(Committee_tree.committee_size cfg.tree);
      result = None;
    }
  in
  let outs =
    match root_slot with
    | None -> []
    | Some slot ->
      (* Contribute private random bits for my slice of gstring. *)
      let v = Bytes.unsafe_to_string (Prng.bits ctx.Fba_sim.Ctx.rng cfg.contrib_bits) in
      st.contribs.(slot) <- Some v;
      Array.fold_right (fun dst outs -> (dst, Contrib { slot; v }) :: outs) root []
  in
  (st, outs)

let assemble_gstring st =
  String.concat "" (Array.to_list (Array.map Phase_king.current st.pk))

(* Sends for the dissemination hop of committee (level, index), whose
   adopted value is [v]: each list is built in one back-to-front pass,
   in member order. *)
let relay_sends cfg ~level ~index v =
  let tree = cfg.tree in
  if level >= Committee_tree.levels tree then
    Array.fold_right
      (fun dst outs -> (dst, Inform { v }) :: outs)
      (Committee_tree.group_members tree index)
      []
  else
    List.fold_right
      (fun (cl, ci) outs ->
        Array.fold_right
          (fun dst outs -> (dst, Relay { level = cl; index = ci; v }) :: outs)
          (Committee_tree.committee tree ~level:cl ~index:ci)
          outs)
      (Committee_tree.children tree ~level ~index)
      []

let on_round cfg st ~round =
  let id = st.ctx.Fba_sim.Ctx.id in
  let outs = ref [] in
  (* Root committee: drive the per-slot phase-king instances. *)
  (match st.root_slot with
  | None -> ()
  | Some _ ->
    if round = 2 then
      st.pk <-
        Array.init (Array.length st.contribs) (fun slot ->
            let initial =
              match st.contribs.(slot) with Some v -> v | None -> default_contrib cfg
            in
            Phase_king.create ~members:(Committee_tree.root cfg.tree) ~me:id ~initial);
    if round >= 2 && Array.length st.pk > 0 then begin
      let local = round - 2 in
      if local <= cfg.pk_rounds then
        Array.iteri
          (fun slot pk ->
            List.iter
              (fun (dst, inner) -> outs := (dst, Pk { slot; inner }) :: !outs)
              (Phase_king.on_round pk ~round:local))
          st.pk
    end;
    (* Root's dissemination hop. *)
    if round = cfg.t_pk_end then begin
      let g = assemble_gstring st in
      Hashtbl.replace st.committee_values (0, 0) g;
      outs := List.rev_append (relay_sends cfg ~level:0 ~index:0 g) !outs
    end);
  (* Non-root committees: adopt plurality and relay on schedule. *)
  List.iter
    (fun (level, index) ->
      if level > 0 && round = cfg.t_pk_end + (2 * level) then begin
        let v =
          match Hashtbl.find_opt st.relay_tallies (level, index) with
          | Some t -> (match Plurality.winner t with Some v -> v | None -> default_contrib cfg)
          | None -> default_contrib cfg
        in
        Hashtbl.replace st.committee_values (level, index) v;
        outs := List.rev_append (relay_sends cfg ~level ~index v) !outs
      end)
    (Committee_tree.memberships cfg.tree id);
  (* Every node: final adoption from its leaf committee. *)
  if round = cfg.rounds_total && st.result = None then begin
    let v =
      match Plurality.winner st.inform_tally with
      | Some v -> v
      | None -> String.concat "" (List.init (Array.length st.contribs) (fun _ -> default_contrib cfg))
    in
    st.result <- Some v
  end;
  List.rev !outs

let on_receive cfg st ~round:_ ~src m =
  let id = st.ctx.Fba_sim.Ctx.id in
  let tree = cfg.tree in
  (match m with
  | Contrib { slot; v } ->
    (* Only root members exchange contributions; slot must match the
       sender's position in the root committee. *)
    (match st.root_slot with
    | Some _ when slot >= 0 && slot < Array.length st.contribs ->
      let root = Committee_tree.root tree in
      if root.(slot) = src && st.contribs.(slot) = None && String.length v = contrib_bytes cfg
      then st.contribs.(slot) <- Some v
    | _ -> ())
  | Pk { slot; inner } ->
    if st.root_slot <> None && Array.length st.pk > 0 && slot >= 0 && slot < Array.length st.pk
    then Phase_king.on_receive st.pk.(slot) ~round:0 ~src inner
  | Relay { level; index; v } ->
    (* Accept only on the edge parent-committee -> my committee. *)
    if
      level >= 1
      && level <= Committee_tree.levels tree
      && index >= 0
      && index < 1 lsl level
      && Committee_tree.is_member tree ~level ~index id
    then begin
      let parent = Committee_tree.committee tree ~level:(level - 1) ~index:(index / 2) in
      match Array.find_index (Int.equal src) parent with
      | None -> ()
      | Some voter ->
        let t =
          match Hashtbl.find_opt st.relay_tallies (level, index) with
          | Some t -> t
          | None ->
            let t = Plurality.create ~voters:(Array.length parent) in
            Hashtbl.add st.relay_tallies (level, index) t;
            t
        in
        Plurality.add t ~voter v
    end
  | Inform { v } ->
    let leaf_level = Committee_tree.levels tree in
    let g = Committee_tree.group_of tree id in
    (match
       Array.find_index (Int.equal src) (Committee_tree.committee tree ~level:leaf_level ~index:g)
     with
    | Some voter -> Plurality.add st.inform_tally ~voter v
    | None -> ()));
  []

let output st = st.result

let msg_bits cfg m =
  let payload =
    match m with
    | Contrib { v; _ } -> 8 + (8 * String.length v)
    | Pk { inner = Phase_king.Value v | Phase_king.King v; _ } -> 16 + (8 * String.length v)
    | Relay { v; _ } -> 16 + (8 * String.length v)
    | Inform { v } -> 8 * String.length v
  in
  cfg.header + payload

let receive_into = None

let msg_tags _cfg = [| "Contrib"; "Pk"; "Relay"; "Inform" |]
let msg_tag _cfg = function Contrib _ -> 0 | Pk _ -> 1 | Relay _ -> 2 | Inform _ -> 3
