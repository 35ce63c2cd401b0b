open Fba_stdx
module Cache = Fba_samplers.Cache
module Packed = Msg.Packed

type config = {
  params : Params.t;
  scenario : Scenario.t;
  layout : Msg.Layout.t;  (* the scenario's packed field widths *)
  intern : Intern.t;  (* the scenario's string/label interner *)
  qi : Cache.t;  (* push quorums I *)
  qh : Cache.t;  (* pull quorums H *)
  qj : Cache.t;  (* poll lists J *)
  strict_drop : bool;  (* drop belief-mismatched messages instead of buffering *)
  events : Fba_sim.Events.sink option;  (* phase-marker sink, observation only *)
  mutable compiled : Compiled.t option;  (* built by [tables], at most once *)
  builder : Compiled.builder option;  (* reusable compile scratch (instance streams) *)
}

(* [compile] chooses nothing — AER always runs on the compiled tables;
   the unit label stays only for callers written against the old
   signature. *)
let config_of_scenario ?(strict_drop = false) ?events ?compile:(_ : unit option) ?builder
    (scenario : Scenario.t) =
  let params = scenario.Scenario.params in
  let layout = scenario.Scenario.layout in
  let intern = scenario.Scenario.intern in
  let find s = Intern.find intern s in
  let rid_bits = layout.Msg.Layout.rid_bits in
  {
    params;
    scenario;
    layout;
    intern;
    qi = Cache.create ~find (Params.sampler_i params);
    qh = Cache.create ~find (Params.sampler_h params);
    qj = Cache.create ~find ~rid_bits (Params.sampler_j params);
    strict_drop;
    events;
    compiled = None;
    builder;
  }

(* Epoch reuse for instance streams: a config for [scenario] whose
   quorum caches and compile scratch are the previous epoch's, reset
   in place — so instance k+1 evaluates into storage instance k
   already paid for. [scenario] must share the previous
   scenario's interner value ({!Scenario.make}'s [?intern]); the
   caches' resolver closures are rebound regardless. Behaviour is
   identical to a fresh [config_of_scenario] on the same scenario. *)
let config_epoch ~prev (scenario : Scenario.t) =
  let params = scenario.Scenario.params in
  let layout = scenario.Scenario.layout in
  let intern = scenario.Scenario.intern in
  let find s = Intern.find intern s in
  let rid_bits = layout.Msg.Layout.rid_bits in
  Cache.reset ~find prev.qi ~sampler:(Params.sampler_i params);
  Cache.reset ~find prev.qh ~sampler:(Params.sampler_h params);
  Cache.reset ~find ~rid_bits prev.qj ~sampler:(Params.sampler_j params);
  {
    params;
    scenario;
    layout;
    intern;
    qi = prev.qi;
    qh = prev.qh;
    qj = prev.qj;
    strict_drop = prev.strict_drop;
    events = prev.events;
    compiled = None;
    builder = (match prev.builder with Some _ as b -> b | None -> Some (Compiled.builder ()));
  }

let config_params c = c.params
let config_scenario c = c.scenario
let config_layout c = c.layout
let config_intern c = c.intern
let config_compiled c = c.compiled

(* The lowered tables, built on first use. The engines build them
   through [compile] before the first [init]; unit tests reach [init]
   and [msg_bits] with no engine, and get the same tables here. *)
let tables cfg =
  match cfg.compiled with
  | Some cp -> cp
  | None ->
    let cp = Compiled.build ?builder:cfg.builder ~scenario:cfg.scenario ~qi:cfg.qi () in
    cfg.compiled <- Some cp;
    cp

(* Idempotent: the engines call it once per run, before [init]. *)
let compile cfg = ignore (tables cfg : Compiled.t)

(* Messages live on the packed plane: one immediate int each (Msg.Packed
   layout), with candidate strings and poll labels carried as interner
   ids. Handlers never materialize the variant form. *)
type msg = Packed.t

let pack cfg m = Packed.pack cfg.layout cfg.intern m
let unpack cfg p = Packed.unpack cfg.layout cfg.intern p

(* Small imperative helpers over Hashtbl-as-set (poll answers only —
   everything else lives in Int_table / position masks below, apart
   from the outstanding polls and the Fw1 burst's replay table). *)
let set () : (int, unit) Hashtbl.t = Hashtbl.create 8

let set_add tbl v =
  if Hashtbl.mem tbl v then false
  else begin
    Hashtbl.add tbl v ();
    true
  end

let set_card = Hashtbl.length

(* The historical tables were keyed by (x, s) or (s, x) tuples; with
   both coordinates now small ints the pair packs into one immediate
   key, so every probe is hash-of-int with no per-lookup boxing. The
   shifts are the run layout's field widths — wide layouts widen the
   keys along with the wire words. *)
let key_xs (lt : Msg.Layout.t) ~x ~sid = (x lsl lt.Msg.Layout.sid_bits) lor sid
let key_sx (lt : Msg.Layout.t) ~sid ~x = (sid lsl lt.Msg.Layout.id_bits) lor x

(* Quorum-position sets: a member is identified by its index in the
   fixed quorum the verifying scan just walked (Cache.pos_sid), so
   presence is one bit of a 62-bit mask at key [key * mult + pos / 62]
   — [mult] is the layout's [mask_mult], the smallest stride clearing
   [(max_n - 1) / 62], so slots never collide across keys for any
   d <= n <= max_n — and cardinality lives in a parallel counter
   table. Returns the new cardinality, or -1 if the member was already
   present — a single table probe either way, no hashing of node ids
   and no per-element storage. *)
let mask_add masks counts ~mult ~key ~pos =
  if Int_table.add_bit masks ((key * mult) + (pos / 62)) ~bit:(pos mod 62) then
    Int_table.incr counts key
  else -1

(* An outstanding poll of Algorithm 1, with the optional re-poll
   extension state (Params.max_poll_attempts). *)
type poll = {
  mutable p_rid : int;  (* interner id of the current label *)
  mutable p_answers : (int, unit) Hashtbl.t;
  mutable p_attempts : int;
  mutable p_issued : int;  (* round of the last (re-)issue *)
}

type state = {
  ctx : Fba_sim.Ctx.t;
  intern : Intern.t;  (* shared with the config; here so accessors resolve ids *)
  mutable cur_round : int;  (* last round seen, for phase-marker stamps *)
  mutable belief : int;  (* s_this, as an interned id *)
  mutable decided_sid : int;  (* -1 while undecided *)
  candidates : Int_table.t;  (* L_x: presence keyed by sid *)
  push_masks : Int_table.t;  (* distinct senders ∈ I(s, this), keyed sid *)
  push_counts : Int_table.t;
  polls : (int, poll) Hashtbl.t;
  pull_labels : Int_table.t;  (* presence: (key_xs lsl 20) lor rid *)
  pull_counts : Int_table.t;
      (* Pull dedup: label ids already routed per (x, s); capped at
         max_poll_attempts to bound the Fw1 amplification *)
  (* Algorithm 2's second handler, per (s, x): the distinct senders
     y ∈ H(s, x) (position masks), every verified target w (one
     presence set over (s, x, w)), and — until the majority burst —
     the targets' (w, label id) in first-verified order, as a chain
     per (s, x) through one flat lane. The burst serves the chain;
     after it, a w is served on its first verified Fw1. *)
  f1s_masks : Int_table.t;  (* distinct y ∈ H(s,x) seen, keyed key_sx *)
  f1s_counts : Int_table.t;
  fw1_seen : Int_table.t;  (* presence: (key_sx lsl id_bits) lor w *)
  fw1_last : Int_table.t;  (* key_sx -> lane offset of its latest target *)
  fw1_lane : int Vec.t;  (* (w, rid, offset of the previous target or -1) triples *)
  burst : (int, int) Hashtbl.t;  (* the burst's replay table, reset per burst *)
  fw2_masks : Int_table.t;  (* distinct z ∈ H(s,this), keyed key_sx *)
  fw2_counts : Int_table.t;
  polled : Int_table.t;  (* Algorithm 3's Polled set: presence, key_xs *)
  answer_counts : Int_table.t;  (* Count_s, keyed sid *)
  answered : Int_table.t;  (* presence: key_xs *)
  muted : int Vec.t;  (* answer-ready (s, x) keys gated by the filter *)
  deferred_src : int Vec.t;  (* belief-mismatched messages, parallel lanes *)
  deferred_msg : int Vec.t;
  scratch_w : int Vec.t;  (* reusable buffers for the Fw1 serve-all burst *)
  scratch_rid : int Vec.t;
  mutable push_sent : int;
  mutable answers_emitted : int;
}

let name = "aer"

(* Message kind -> protocol phase, for Events.Phase_acc. *)
let phase_of_kind = function
  | "Push" -> "push"
  | "Poll" | "Pull" | "Answer" -> "poll"
  | "Fw1" -> "fw1"
  | "Fw2" -> "fw2"
  | kind -> kind

(* Announce a phase transition (first activation only; Events.phase
   dedups). Pure observation: never changes protocol behaviour. *)
let mark cfg st name =
  match cfg.events with
  | None -> ()
  | Some k -> Fba_sim.Events.phase k ~round:st.cur_round name

(* Phase-indexed dispatch table: packed tag -> handler, one indexed
   load per message. Declared ahead of the handler recursion and filled
   right after it; tags 0 and 7 keep the failing stub. *)
type handler = config -> state -> emit:(int -> Packed.t -> unit) -> src:int -> Packed.t -> unit

let invalid_packed : handler =
 fun _ _ ~emit:_ ~src:_ _ -> invalid_arg "Aer: invalid packed message"

let handler_table : handler array = Array.make 8 invalid_packed

(* Algorithm 1: poll a fresh random sample and the pull quorum for s.
   Handlers push outgoing messages through [emit] instead of returning
   lists; emission order is exactly the order the historical list API
   delivered, so schedules are byte-identical. *)
let issue_poll ?(round = 0) cfg st ~emit sid =
  mark cfg st "poll";
  let id = st.ctx.Fba_sim.Ctx.id in
  let r = Prng.int64 st.ctx.Fba_sim.Ctx.rng in
  let rid = Intern.intern_label cfg.intern r in
  (match Hashtbl.find st.polls sid with
  | p ->
    p.p_rid <- rid;
    p.p_answers <- set ();
    p.p_attempts <- p.p_attempts + 1;
    p.p_issued <- round
  | exception Not_found ->
    Hashtbl.replace st.polls sid { p_rid = rid; p_answers = set (); p_attempts = 1; p_issued = round });
  let poll_msg = Packed.poll cfg.layout ~sid ~rid in
  let pull_msg = Packed.pull cfg.layout ~sid ~rid in
  let qj = Cache.quorum_rid cfg.qj ~x:id ~rid ~r in
  for i = 0 to Array.length qj - 1 do
    emit qj.(i) poll_msg
  done;
  let qh = Cache.quorum_sid cfg.qh ~sid ~s:(Intern.string cfg.intern sid) ~x:id in
  for i = 0 to Array.length qh - 1 do
    emit qh.(i) pull_msg
  done

(* Algorithm 3's answer emission, gated by the log² n filter: an
   overloaded node waits until it has decided before answering more. *)
let try_answer cfg st ~emit sid x =
  let lt = cfg.layout in
  if
    Int_table.mem st.polled (key_xs lt ~x ~sid)
    && (not (Int_table.mem st.answered (key_xs lt ~x ~sid)))
    && Int_table.get_or st.fw2_counts (key_sx lt ~sid ~x) ~default:0
       >= Params.majority_h cfg.params
  then begin
    let cnt = Int_table.get_or st.answer_counts sid ~default:0 in
    if st.decided_sid >= 0 || cnt < cfg.params.Params.pull_filter then begin
      Int_table.set st.answer_counts sid (cnt + 1);
      ignore (Int_table.add st.answered (key_xs lt ~x ~sid));
      st.answers_emitted <- st.answers_emitted + 1;
      emit x (Packed.answer lt ~sid)
    end
    else Vec.push st.muted (key_sx lt ~sid ~x)
  end

(* Append a pre-burst Fw1 target to its (s, x) chain. *)
let record_target st tkey ~w ~rid =
  let at = Vec.length st.fw1_lane in
  Vec.push st.fw1_lane w;
  Vec.push st.fw1_lane rid;
  Vec.push st.fw1_lane (Int_table.get_or st.fw1_last tkey ~default:(-1));
  Int_table.set st.fw1_last tkey at

(* Add the chain ending at lane offset [at] to [h], oldest first. The
   depth is the chain's length: one (s, x)'s distinct targets. *)
let rec replay h lane at =
  if at >= 0 then begin
    replay h lane (Vec.get lane (at + 2));
    Hashtbl.add h (Vec.get lane at) (Vec.get lane (at + 1))
  end

(* The majority burst: serve every recorded target of (s, x) once. The
   wire order is the one the historical per-(s, x) [Hashtbl.create 8]
   gave, which the determinism goldens pin: its bucket order, reversed
   (its fold consed as it visited). Only a real Hashtbl reproduces
   bucket order, so the chain is replayed, in first-verified order,
   into the reset burst table — whose state is then exactly the
   historical table's — and the walk is emitted back to front. *)
let serve_burst cfg st ~emit ~sid ~x tkey =
  let lt = cfg.layout in
  Hashtbl.reset st.burst;
  replay st.burst st.fw1_lane (Int_table.get_or st.fw1_last tkey ~default:(-1));
  Vec.clear st.scratch_w;
  Vec.clear st.scratch_rid;
  Hashtbl.iter
    (fun w rid ->
      Vec.push st.scratch_w w;
      Vec.push st.scratch_rid rid)
    st.burst;
  for i = Vec.length st.scratch_w - 1 downto 0 do
    emit (Vec.get st.scratch_w i) (Packed.fw2 lt ~sid ~rid:(Vec.get st.scratch_rid i) ~x)
  done

(* Push phase acceptance: s enters L_x on a strict majority of I(s, x). *)
let rec handle_push cfg st ~emit ~src sid =
  if st.decided_sid >= 0 || Int_table.mem st.candidates sid then ()
  else begin
    let id = st.ctx.Fba_sim.Ctx.id in
    let pos = Cache.pos_sid cfg.qi ~sid ~s:(Intern.string cfg.intern sid) ~x:id ~y:src in
    if pos >= 0 then begin
      let c =
        mask_add st.push_masks st.push_counts ~mult:cfg.layout.Msg.Layout.mask_mult ~key:sid ~pos
      in
      if c >= Params.majority_i cfg.params then begin
        ignore (Int_table.add st.candidates sid);
        issue_poll cfg st ~emit sid
      end
    end
  end

and handle_poll cfg st ~emit ~src p =
  let lt = cfg.layout in
  let sid = Packed.sid lt p and rid = Packed.rid lt p in
  let id = st.ctx.Fba_sim.Ctx.id in
  if Cache.mem_rid cfg.qj ~x:src ~rid ~r:(Intern.label cfg.intern rid) ~y:id then begin
    ignore (Int_table.add st.polled (key_xs lt ~x:src ~sid));
    (* The Fw2 majority may already be in (asynchronous reordering):
       Algorithm 3's Poll handler answers immediately in that case. *)
    try_answer cfg st ~emit sid src
  end

and handle_pull cfg st ~emit ~src p =
  let lt = cfg.layout in
  let sid = Packed.sid lt p in
  if sid <> st.belief then defer cfg st ~src p
  else begin
    let rid = Packed.rid lt p in
    let key = key_xs lt ~x:src ~sid in
    let lkey = (key lsl lt.Msg.Layout.rid_bits) lor rid in
    if
      Int_table.mem st.pull_labels lkey
      || Int_table.get_or st.pull_counts key ~default:0 >= cfg.params.Params.max_poll_attempts
    then ()
    else begin
      ignore (Int_table.add st.pull_labels lkey);
      ignore (Int_table.incr st.pull_counts key);
      let id = st.ctx.Fba_sim.Ctx.id in
      let s = Intern.string cfg.intern sid in
      if Cache.mem_sid cfg.qh ~sid ~s ~x:src ~y:id then begin
        (* Algorithm 2, first handler: fan the request out to the pull
           quorums of every poll-list member. The historical code consed
           (w ascending, z ascending) and returned the reversed list, so
           we emit w descending, z descending — the same wire order. *)
        mark cfg st "fw1";
        let r = Intern.label cfg.intern rid in
        let qj = Cache.quorum_rid cfg.qj ~x:src ~rid ~r in
        for wi = Array.length qj - 1 downto 0 do
          let w = qj.(wi) in
          let m = Packed.fw1 lt ~sid ~rid ~x:src ~w in
          let zq = Cache.quorum_sid cfg.qh ~sid ~s ~x:w in
          for zi = Array.length zq - 1 downto 0 do
            emit zq.(zi) m
          done
        done
      end
    end
  end

and handle_fw1 cfg st ~emit ~src p =
  let lt = cfg.layout in
  let sid = Packed.sid lt p in
  if sid <> st.belief then defer cfg st ~src p
  else begin
    let rid = Packed.rid lt p and x = Packed.x lt p and w = Packed.w lt p in
    let id = st.ctx.Fba_sim.Ctx.id in
    let s = Intern.string cfg.intern sid in
    if Cache.mem_sid cfg.qh ~sid ~s ~x:w ~y:id then begin
      (* The sender verification returns src's position in H(s, x) —
         the index the sender-set bitmask is keyed by. *)
      let spos = Cache.pos_sid cfg.qh ~sid ~s ~x ~y:src in
      if spos >= 0 && Cache.mem_rid cfg.qj ~x ~rid ~r:(Intern.label cfg.intern rid) ~y:w
      then begin
        let tkey = key_sx lt ~sid ~x in
        let fresh = Int_table.add st.fw1_seen ((tkey lsl lt.Msg.Layout.id_bits) lor w) in
        let c_new =
          mask_add st.f1s_masks st.f1s_counts ~mult:lt.Msg.Layout.mask_mult ~key:tkey ~pos:spos
        in
        let newly = c_new >= 0 in
        let c = if newly then c_new else Int_table.get_or st.f1s_counts tkey ~default:0 in
        let maj = Params.majority_h cfg.params in
        if c < maj then (if fresh then record_target st tkey ~w ~rid)
        else begin
          mark cfg st "fw2";
          if newly && c = maj then begin
            if fresh then record_target st tkey ~w ~rid;
            serve_burst cfg st ~emit ~sid ~x tkey
          end
          else if fresh then emit w (Packed.fw2 lt ~sid ~rid ~x)
        end
      end
    end
  end

and handle_fw2 cfg st ~emit ~src p =
  let lt = cfg.layout in
  let sid = Packed.sid lt p in
  if sid <> st.belief then defer cfg st ~src p
  else begin
    let rid = Packed.rid lt p and x = Packed.x lt p in
    let id = st.ctx.Fba_sim.Ctx.id in
    if Cache.mem_rid cfg.qj ~x ~rid ~r:(Intern.label cfg.intern rid) ~y:id then begin
      let spos = Cache.pos_sid cfg.qh ~sid ~s:(Intern.string cfg.intern sid) ~x:id ~y:src in
      if spos >= 0 then begin
        let c =
          mask_add st.fw2_masks st.fw2_counts ~mult:lt.Msg.Layout.mask_mult
            ~key:(key_sx lt ~sid ~x) ~pos:spos
        in
        if c >= 0 then try_answer cfg st ~emit sid x
      end
    end
  end

and handle_answer cfg st ~emit ~src sid =
  if st.decided_sid >= 0 then ()
  else begin
    match Hashtbl.find st.polls sid with
    | exception Not_found -> ()
    | p ->
      let id = st.ctx.Fba_sim.Ctx.id in
      if
        Cache.mem_rid cfg.qj ~x:id ~rid:p.p_rid ~r:(Intern.label cfg.intern p.p_rid) ~y:src
        && set_add p.p_answers src
        && set_card p.p_answers >= Params.majority_j cfg.params
      then decide cfg st ~emit sid
  end

(* Decision: fix the belief, then replay buffered traffic that now
   matches it and release answers the overload filter was holding.
   Handlers cannot append to either backlog once decided_sid is set, so
   iterating the live lanes (chronological order) is a snapshot. *)
and decide cfg st ~emit sid =
  let lt = cfg.layout in
  st.decided_sid <- sid;
  st.belief <- sid;
  for i = 0 to Vec.length st.deferred_msg - 1 do
    let m = Vec.get st.deferred_msg i in
    (* Only Pull/Fw1/Fw2 are ever deferred; replay the ones matching
       the decided string, drop the rest. *)
    if Packed.sid lt m = sid then dispatch cfg st ~emit ~src:(Vec.get st.deferred_src i) m
  done;
  for i = 0 to Vec.length st.muted - 1 do
    (* muted holds key_sx-packed (s, x) pairs; split on the layout. *)
    let k = Vec.get st.muted i in
    if k lsr lt.Msg.Layout.id_bits = sid then
      try_answer cfg st ~emit sid (k land lt.Msg.Layout.id_mask)
  done;
  Vec.reset st.muted;
  (* Eviction: every reader of these rows is gated on decided_sid < 0
     (handle_push for the push accumulators; handle_answer / on_round /
     issue_poll for the outstanding polls — issue_poll is only reachable
     through the other two once candidates stop being added), so after
     the replay above none of them can be referenced again no matter
     what the calendar still holds in flight. Dropping their storage —
     not just their lengths — bounds per-node state after decision by
     the serve-side tables that must stay live (pull/fw1/fw2), which is
     what keeps decided nodes cheap while stragglers catch up. *)
  Int_table.reset st.push_masks;
  Int_table.reset st.push_counts;
  Hashtbl.reset st.polls;
  Vec.reset st.deferred_src;
  Vec.reset st.deferred_msg

and defer cfg st ~src m =
  (* DESIGN.md substitution 6: the paper's pseudo-code drops these;
     buffering + replay is equivalent under asynchrony and avoids
     starving late deciders under a synchronous schedule. strict_drop
     restores the literal behaviour for the ablation. *)
  if (not cfg.strict_drop) && st.decided_sid < 0 then begin
    Vec.push st.deferred_src src;
    Vec.push st.deferred_msg m
  end

(* Tag-indexed jump (tag <= 7, the table has 8 slots). *)
and dispatch cfg st ~emit ~src p =
  (Array.unsafe_get handler_table (Packed.tag p)) cfg st ~emit ~src p

let () =
  handler_table.(Packed.tag_push) <-
    (fun cfg st ~emit ~src p -> handle_push cfg st ~emit ~src (Packed.sid cfg.layout p));
  handler_table.(Packed.tag_poll) <- handle_poll;
  handler_table.(Packed.tag_pull) <- handle_pull;
  handler_table.(Packed.tag_fw1) <- handle_fw1;
  handler_table.(Packed.tag_fw2) <- handle_fw2;
  handler_table.(Packed.tag_answer) <-
    (fun cfg st ~emit ~src p -> handle_answer cfg st ~emit ~src (Packed.sid cfg.layout p))

let init cfg ctx =
  let id = ctx.Fba_sim.Ctx.id in
  let s0 = cfg.scenario.Scenario.initial.(id) in
  let sid0 = Intern.intern cfg.intern s0 in
  let st =
    {
      ctx;
      intern = cfg.intern;
      cur_round = 0;
      belief = sid0;
      decided_sid = -1;
      candidates = Int_table.create ();
      push_masks = Int_table.create ();
      push_counts = Int_table.create ();
      polls = Hashtbl.create 8;
      pull_labels = Int_table.create ~capacity:32 ();
      pull_counts = Int_table.create ~capacity:32 ();
      f1s_masks = Int_table.create ~capacity:64 ();
      f1s_counts = Int_table.create ~capacity:32 ();
      fw1_seen = Int_table.create ~capacity:64 ();
      fw1_last = Int_table.create ~capacity:32 ();
      fw1_lane = Vec.create ();
      burst = Hashtbl.create 8;
      fw2_masks = Int_table.create ();
      fw2_counts = Int_table.create ();
      polled = Int_table.create ~capacity:32 ();
      answer_counts = Int_table.create ();
      answered = Int_table.create ~capacity:32 ();
      muted = Vec.create ();
      deferred_src = Vec.create ();
      deferred_msg = Vec.create ();
      scratch_w = Vec.create ();
      scratch_rid = Vec.create ();
      push_sent = 0;
      answers_emitted = 0;
    }
  in
  ignore (Int_table.add st.candidates sid0);
  mark cfg st "push";
  let acc = ref [] in
  let emit dst m = acc := (dst, m) :: !acc in
  let push_msg = Packed.push cfg.layout ~sid:sid0 in
  (* The compiled CSR row is Push_plan.targets, precomputed. *)
  let cp = tables cfg in
  let lo = Compiled.push_start cp ~y:id and hi = Compiled.push_stop cp ~y:id in
  for i = lo to hi - 1 do
    emit (Compiled.push_target cp i) push_msg
  done;
  st.push_sent <- hi - lo;
  issue_poll cfg st ~emit sid0;
  (st, List.rev !acc)

(* The re-poll extension: a candidate whose poll went unanswered for
   repoll_timeout rounds retries with a fresh label, up to
   max_poll_attempts. With the default budget of 1 attempt this hook is
   inert and the protocol is exactly the paper's. *)
let on_round cfg st ~round =
  st.cur_round <- round;
  if st.decided_sid >= 0 || cfg.params.Params.max_poll_attempts <= 1 then []
  else begin
    let due = ref [] in
    Hashtbl.iter
      (fun sid (p : poll) ->
        if
          p.p_attempts < cfg.params.Params.max_poll_attempts
          && round - p.p_issued >= cfg.params.Params.repoll_timeout
        then due := sid :: !due)
      st.polls;
    let acc = ref [] in
    let emit dst m = acc := (dst, m) :: !acc in
    List.iter (fun sid -> issue_poll ~round cfg st ~emit sid) !due;
    List.rev !acc
  end

(* The engines' hot entry point: dispatch straight into the handlers,
   pushing outgoing messages through the engine's [emit] — no list, no
   tuples, no envelope. *)
let receive_into_impl cfg st ~round ~src m ~emit =
  st.cur_round <- round;
  dispatch cfg st ~emit ~src m

let receive_into = Some receive_into_impl

(* List-returning compatibility shim over the same handlers (unit
   tests drive it directly; engines use [receive_into]). *)
let on_receive cfg st ~round ~src m =
  let acc = ref [] in
  receive_into_impl cfg st ~round ~src m ~emit:(fun dst m -> acc := (dst, m) :: !acc);
  List.rev !acc

let output st = if st.decided_sid < 0 then None else Some (Intern.string st.intern st.decided_sid)

let msg_bits cfg m = Compiled.bits (tables cfg) m

(* Profiler slots are the packed wire tags — the same indices the
   Compiled dispatch jump table is keyed by, so per-slot hit/time
   counters are hot-spot counters on that table. Tags 0 and 7 are the
   table's invalid stubs; they can never be charged (dispatch raises)
   but keep the indexing aligned. *)
let profiler_tags =
  [| "invalid"; "Push"; "Poll"; "Pull"; "Fw1"; "Fw2"; "Answer"; "invalid" |]

let msg_tags _cfg = profiler_tags
let msg_tag _cfg p = Packed.tag p

let pp_msg (cfg : config) = Packed.pp cfg.layout cfg.intern

let belief st = Intern.string st.intern st.belief
let decided st = output st

let candidates st =
  let acc = ref [] in
  Int_table.iter (fun sid _ -> acc := Intern.string st.intern sid :: !acc) st.candidates;
  !acc

let candidate_count st = Int_table.length st.candidates
let push_messages_sent st = st.push_sent
let deferred_count st = Vec.length st.deferred_msg
let answers_sent st = st.answers_emitted
