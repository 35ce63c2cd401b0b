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
  mutable compiled : Compiled.t option;  (* built by [tables], at most once *)
  burst : burst;  (* the Fw1 burst's scratch: a burst ends inside one handler call *)
}

(* One burst's targets, oldest first, and their emission order. *)
and burst = { order : Hashtbl_order.t; mutable burst_w : int array; mutable burst_rid : int array }

(* [compile] chooses nothing — AER always runs on the compiled tables;
   the unit label stays only for callers written against the old
   signature. *)
let config_of_scenario ?(strict_drop = false) ?compile:(_ : unit option) (scenario : Scenario.t) =
  let params = scenario.Scenario.params in
  let layout = scenario.Scenario.layout in
  let intern = scenario.Scenario.intern in
  {
    params;
    scenario;
    layout;
    intern;
    qi = Cache.create (Params.sampler_i params);
    qh = Cache.create (Params.sampler_h params);
    qj = Cache.create (Params.sampler_j params);
    strict_drop;
    compiled = None;
    burst = { order = Hashtbl_order.create (); burst_w = [||]; burst_rid = [||] };
  }

let config_scenario c = c.scenario
let config_compiled c = c.compiled

(* The lowered tables, built on first use. The engines build them
   through [compile] before the first [init]; unit tests reach [init]
   and [msg_bits] with no engine, and get the same tables here. *)
let tables cfg =
  match cfg.compiled with
  | Some cp -> cp
  | None ->
    let cp = Compiled.build ~scenario:cfg.scenario ~qi:cfg.qi in
    cfg.compiled <- Some cp;
    cp

(* Idempotent: the engines call it once per run, before [init]. *)
let compile cfg = ignore (tables cfg : Compiled.t)

(* A message is one packed word (Msg.Packed), with candidate strings
   and poll labels carried as interner ids. *)
type msg = Packed.t

(* The historical tables were keyed by (x, s) or (s, x) tuples; with
   both coordinates now small ints the pair packs into one immediate
   key, so every probe is hash-of-int with no per-lookup boxing. The
   shifts are the run layout's field widths, so the keys widen with
   the wire words. *)
let key_xs (lt : Msg.Layout.t) ~x ~sid = (x lsl lt.Msg.Layout.sid_bits) lor sid
let key_sx (lt : Msg.Layout.t) ~sid ~x = (sid lsl lt.Msg.Layout.id_bits) lor x

(* A majority filter over a fixed quorum: every acceptance in AER is a
   strict majority of one sampled quorum, I(s, x) for a pushed string,
   H(s, x) for Fw1 relays, H(s, w) for Fw2 and J(x, r) for a poll's
   answers. A member is its index in the quorum the verifying scan just
   walked (Cache.pos_sid / pos_rid). One Int_table probe maps a key to
   the offset of its record in one flat int array: ⌈d/62⌉ 62-bit
   position masks, the count, then the caller's extra words (-1 until
   set). *)
type tally = {
  at : Int_table.t;  (* key -> record offset *)
  mutable recs : int array;
  words : int;  (* position-mask words per record *)
  size : int;  (* masks, count and extra words *)
}

let tally ?capacity ~d ~extra () =
  let words = (d + 61) / 62 in
  { at = Int_table.create ?capacity (); recs = [||]; words; size = words + 1 + extra }

(* The index of the record's first extra word. *)
let[@inline] extra t at = at + t.words + 1

(* [key]'s record, appended on first use: 8 records, then doubling. *)
let record t key =
  let at = Int_table.get_or t.at key ~default:(-1) in
  if at >= 0 then at
  else begin
    let at = Int_table.length t.at * t.size in
    if at + t.size > Array.length t.recs then begin
      let a = Array.make (max (8 * t.size) (2 * Array.length t.recs)) 0 in
      Array.blit t.recs 0 a 0 at;
      t.recs <- a
    end;
    Array.fill t.recs (extra t at) (t.size - t.words - 1) (-1);
    Int_table.set t.at key at;
    at
  end

(* Count the member at quorum position [pos] of the record at [at]
   once: the new count, or -1 if it was counted before. *)
let[@inline] vote t at pos =
  let m = at + (pos / 62) and bit = 1 lsl (pos mod 62) in
  let mask = Array.unsafe_get t.recs m in
  if mask land bit <> 0 then -1
  else begin
    Array.unsafe_set t.recs m (mask lor bit);
    let c = Array.unsafe_get t.recs (at + t.words) + 1 in
    Array.unsafe_set t.recs (at + t.words) c;
    c
  end

let[@inline] count t at = Array.unsafe_get t.recs (at + t.words)

(* Forget every record and give the storage back. *)
let drop t =
  Int_table.reset t.at;
  t.recs <- [||]

(* An outstanding poll of Algorithm 1, with the optional re-poll
   extension state (Params.max_poll_attempts). *)
type poll = {
  mutable p_rid : int;  (* interner id of the current label; keys its answers *)
  mutable p_attempts : int;
  mutable p_issued : int;  (* round of the last (re-)issue *)
}

type state = {
  ctx : Fba_sim.Ctx.t;
  intern : Intern.t;  (* shared with the config; here so accessors resolve ids *)
  mutable belief : int;  (* s_this, as an interned id *)
  mutable decided_sid : int;  (* -1 while undecided *)
  candidates : Int_table.t;  (* L_x: presence keyed by sid *)
  push : tally;  (* senders ∈ I(s, this), keyed sid *)
  polls : (int, poll) Hashtbl.t;
  answers : tally;  (* answerers ∈ J(this, r), keyed by the label id of r *)
  pull_labels : Int_table.t;  (* presence: (key_xs lsl rid_bits) lor rid *)
  pull_counts : Int_table.t;
      (* Pull dedup: label ids already routed per (x, s); capped at
         max_poll_attempts to bound the Fw1 amplification *)
  (* Algorithm 2's second handler. Every verified target (s, x, w)
     maps to the label id it was first verified under, packed beside
     the offset of its (s, x) record; a copy under that label has only
     its relay's place in H(s, x) left to check. A record counts the
     relays y ∈ H(s, x) and, until the majority burst, keeps the head
     of the (s, x) chain of targets' (w, label id) in first-verified
     order, through one flat lane. The burst serves the chain; after
     it, a w is served on its first verified Fw1, and copies of a
     verified w change nothing. Both tables are sized from [Params]
     when the node verifies its first Fw1. *)
  fw1_seen : Int_table.t;  (* (key_sx lsl id_bits) lor w -> (offset lsl rid_bits) lor rid *)
  fw1 : tally;  (* relays ∈ H(s, x), keyed key_sx; extra word: chain head or -1 *)
  fw1_lane : int Vec.t;  (* (w, rid, offset of the previous target or -1) triples *)
  fw2 : tally;  (* senders z ∈ H(s, this), keyed key_sx; extra word: x's progress *)
  answer_counts : Int_table.t;  (* Count_s, keyed sid *)
  muted : int Vec.t;  (* answer-ready (s, x) keys gated by the filter *)
  deferred_src : int Vec.t;  (* belief-mismatched messages, parallel lanes *)
  deferred_msg : int Vec.t;
  mutable push_sent : int;
}

(* Message kind -> protocol phase, for Events.Tally. *)
let phase_of_kind = function
  | "Push" -> "push"
  | "Poll" | "Pull" | "Answer" -> "poll"
  | "Fw1" -> "fw1"
  | "Fw2" -> "fw2"
  | kind -> kind

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
let issue_poll ?(round = 0) (cfg : config) st ~emit sid =
  let id = st.ctx.Fba_sim.Ctx.id in
  let r = Prng.int64 st.ctx.Fba_sim.Ctx.rng in
  let rid = Intern.intern_label cfg.intern r in
  (match Hashtbl.find st.polls sid with
  | p ->
    p.p_rid <- rid;
    p.p_attempts <- p.p_attempts + 1;
    p.p_issued <- round
  | exception Not_found ->
    Hashtbl.replace st.polls sid { p_rid = rid; p_attempts = 1; p_issued = round });
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

(* x's progress through Algorithm 3 on s, the (s, x) Fw2 record's
   extra word: -1 until x's Poll, then [polled], then [answered]. *)
let polled = 0
let answered = 1

(* Algorithm 3's answer emission for the (s, x) Fw2 record at [at],
   gated by the log² n filter: an overloaded node waits until it has
   decided before answering more. *)
let try_answer cfg st ~emit sid x at =
  let t = st.fw2 in
  if t.recs.(extra t at) = polled && count t at >= Params.majority_h cfg.params then begin
    let cnt = Int_table.get_or st.answer_counts sid ~default:0 in
    if st.decided_sid >= 0 || cnt < cfg.params.Params.pull_filter then begin
      Int_table.set st.answer_counts sid (cnt + 1);
      t.recs.(extra t at) <- answered;
      emit x (Packed.answer cfg.layout ~sid)
    end
    else Vec.push st.muted (key_sx cfg.layout ~sid ~x)
  end

(* The record of a freshly verified target's (s, x), appended on the
   pair's first target. The node's first target sizes both tables for
   2·d_h·d_j keys, twice the expected load: each poller x names d_j
   targets w, and the node sits in H(s, w) for about d_h of every n
   of them, so about d_h·d_j targets reach it per polled string.
   Sized for d_h·d_j keys, the tables allocate less but measure
   slower: they fill to near the one-half load bound, and every Fw1
   copy probes one. *)
let fw1_record cfg st tkey =
  if Int_table.length st.fw1_seen = 0 then begin
    let k = 2 * cfg.params.Params.d_h * cfg.params.Params.d_j in
    Int_table.reserve st.fw1_seen k;
    Int_table.reserve st.fw1.at k
  end;
  record st.fw1 tkey

(* Append a pre-burst Fw1 target to the chain whose head the record
   keeps at offset [head]. *)
let record_target st ~head ~w ~rid =
  let at = Vec.length st.fw1_lane in
  Vec.push st.fw1_lane w;
  Vec.push st.fw1_lane rid;
  Vec.push st.fw1_lane st.fw1.recs.(head);
  st.fw1.recs.(head) <- at

(* The majority burst: serve every recorded target of (s, x) once, in
   the wire order the historical per-(s, x) [Hashtbl.create 8] gave,
   which the determinism goldens pin: that table's fold, consed
   (Hashtbl_order.reversed_fold). The chain runs newest first, so it
   is laid out in the scratch lanes back to front. *)
let serve_burst cfg st ~emit ~sid ~x ~head =
  let lane = st.fw1_lane and b = cfg.burst in
  let k = ref 0 and at = ref st.fw1.recs.(head) in
  while !at >= 0 do
    incr k;
    at := Vec.get lane (!at + 2)
  done;
  let k = !k in
  if Array.length b.burst_w < k then begin
    b.burst_w <- Array.make (2 * k) 0;
    b.burst_rid <- Array.make (2 * k) 0
  end;
  let ws = b.burst_w and rids = b.burst_rid in
  let i = ref k and at = ref st.fw1.recs.(head) in
  while !at >= 0 do
    decr i;
    ws.(!i) <- Vec.get lane !at;
    rids.(!i) <- Vec.get lane (!at + 1);
    at := Vec.get lane (!at + 2)
  done;
  let order = Hashtbl_order.reversed_fold b.order ws k in
  for i = 0 to k - 1 do
    let p = order.(i) in
    emit ws.(p) (Packed.fw2 cfg.layout ~sid ~rid:rids.(p) ~x)
  done

(* A verified Fw1 copy from the relay at position [spos] of H(s, x),
   against the (s, x) record at offset [at]: count the relay once, hold
   fresh targets until the count reaches the H majority, then serve
   them all at once, and serve each later fresh target on arrival. *)
let count_relay cfg st ~emit ~sid ~x ~w ~rid ~fresh at spos =
  let v = vote st.fw1 at spos in
  let c = if v < 0 then count st.fw1 at else v in
  let head = extra st.fw1 at in
  let maj = Params.majority_h cfg.params in
  if c < maj then (if fresh then record_target st ~head ~w ~rid)
  else if v = maj then begin
    if fresh then record_target st ~head ~w ~rid;
    serve_burst cfg st ~emit ~sid ~x ~head
  end
  else if fresh then emit w (Packed.fw2 cfg.layout ~sid ~rid ~x)

(* Push phase acceptance: s enters L_x on a strict majority of I(s, x). *)
let rec handle_push cfg st ~emit ~src sid =
  if st.decided_sid >= 0 || Int_table.mem st.candidates sid then ()
  else begin
    let id = st.ctx.Fba_sim.Ctx.id in
    let pos = Cache.pos_sid cfg.qi ~sid ~s:(Intern.string cfg.intern sid) ~x:id ~y:src in
    if pos >= 0 && vote st.push (record st.push sid) pos >= Params.majority_i cfg.params then begin
      ignore (Int_table.add st.candidates sid);
      issue_poll cfg st ~emit sid
    end
  end

and handle_poll cfg st ~emit ~src p =
  let lt = cfg.layout in
  let sid = Packed.sid lt p and rid = Packed.rid lt p in
  let id = st.ctx.Fba_sim.Ctx.id in
  if Cache.mem_rid cfg.qj ~x:src ~rid ~r:(Intern.label cfg.intern rid) ~y:id then begin
    let at = record st.fw2 (key_sx lt ~sid ~x:src) in
    let i = extra st.fw2 at in
    if st.fw2.recs.(i) < 0 then st.fw2.recs.(i) <- polled;
    (* The Fw2 majority may already be in (asynchronous reordering):
       Algorithm 3's Poll handler answers immediately in that case. *)
    try_answer cfg st ~emit sid src at
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
  let sid = Packed.sid lt p and x = Packed.x lt p and w = Packed.w lt p in
  let n = cfg.params.Params.n in
  (* A forged id can fit the packed field and still be >= n. Such a
     node is in no quorum: drop the message before any cache lookup
     could index past the population. *)
  if x >= n || w >= n then ()
  else if sid <> st.belief then defer cfg st ~src p
  else begin
    let rid = Packed.rid lt p in
    let s = Intern.string cfg.intern sid in
    let tkey = key_sx lt ~sid ~x in
    let wkey = (tkey lsl lt.Msg.Layout.id_bits) lor w in
    let seen = Int_table.get_or st.fw1_seen wkey ~default:(-1) in
    if seen >= 0 && count st.fw1 (seen lsr lt.Msg.Layout.rid_bits) >= Params.majority_h cfg.params
    then
      (* Past the majority the target has had its Fw2 (in the burst or
         on its first copy), and the count and relay masks decide
         nothing more: a later copy, under any label, changes nothing. *)
      ()
    else if seen >= 0 && seen land lt.Msg.Layout.rid_mask = rid then begin
      (* Verified before under this very label: this node ∈ H(s, w)
         and w ∈ J(x, r) hold again, so only the relay is checked. Its
         position in H(s, x) keys the relay mask. *)
      let spos = Cache.pos_sid cfg.qh ~sid ~s ~x ~y:src in
      if spos >= 0 then
        count_relay cfg st ~emit ~sid ~x ~w ~rid ~fresh:false
          (seen lsr lt.Msg.Layout.rid_bits) spos
    end
    else begin
      let id = st.ctx.Fba_sim.Ctx.id in
      if Cache.mem_sid cfg.qh ~sid ~s ~x:w ~y:id then begin
        let spos = Cache.pos_sid cfg.qh ~sid ~s ~x ~y:src in
        if spos >= 0 && Cache.mem_rid cfg.qj ~x ~rid ~r:(Intern.label cfg.intern rid) ~y:w
        then begin
          (* A target seen before keeps the label it was first verified
             under; a fresh one is entered under this one. *)
          let at =
            if seen >= 0 then seen lsr lt.Msg.Layout.rid_bits
            else begin
              let at = fw1_record cfg st tkey in
              Int_table.set st.fw1_seen wkey ((at lsl lt.Msg.Layout.rid_bits) lor rid);
              at
            end
          in
          count_relay cfg st ~emit ~sid ~x ~w ~rid ~fresh:(seen < 0) at spos
        end
      end
    end
  end

and handle_fw2 cfg st ~emit ~src p =
  let lt = cfg.layout in
  let sid = Packed.sid lt p and x = Packed.x lt p in
  if x >= cfg.params.Params.n then () (* a forged id, as in handle_fw1 *)
  else if sid <> st.belief then defer cfg st ~src p
  else begin
    let rid = Packed.rid lt p in
    let id = st.ctx.Fba_sim.Ctx.id in
    if Cache.mem_rid cfg.qj ~x ~rid ~r:(Intern.label cfg.intern rid) ~y:id then begin
      let spos = Cache.pos_sid cfg.qh ~sid ~s:(Intern.string cfg.intern sid) ~x:id ~y:src in
      if spos >= 0 then begin
        let at = record st.fw2 (key_sx lt ~sid ~x) in
        if vote st.fw2 at spos >= 0 then try_answer cfg st ~emit sid x at
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
      let pos =
        Cache.pos_rid cfg.qj ~x:id ~rid:p.p_rid ~r:(Intern.label cfg.intern p.p_rid) ~y:src
      in
      if
        pos >= 0
        && vote st.answers (record st.answers p.p_rid) pos >= Params.majority_j cfg.params
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
      try_answer cfg st ~emit sid (k land lt.Msg.Layout.id_mask) (record st.fw2 k)
  done;
  Vec.reset st.muted;
  (* Eviction: every reader of these rows is gated on decided_sid < 0
     (handle_push for the push tally; handle_answer / on_round /
     issue_poll for the outstanding polls — issue_poll is only reachable
     through the other two once candidates stop being added), so after
     the replay above none of them can be referenced again no matter
     what the calendar still holds in flight. Dropping their storage —
     not just their lengths — bounds per-node state after decision by
     the serve-side tables that must stay live (pull/fw1/fw2), which is
     what keeps decided nodes cheap while stragglers catch up. The
     answers tally (two words per poll) stays: a fresh table at every
     decision costs 0.4% of a cornering run's words at n = 128. *)
  drop st.push;
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
  let p = cfg.params in
  let st =
    {
      ctx;
      intern = cfg.intern;
      belief = sid0;
      decided_sid = -1;
      candidates = Int_table.create ();
      push = tally ~d:p.Params.d_i ~extra:0 ();
      polls = Hashtbl.create 8;
      answers = tally ~d:p.Params.d_j ~extra:0 ();
      pull_labels = Int_table.create ~capacity:32 ();
      pull_counts = Int_table.create ~capacity:32 ();
      fw1_seen = Int_table.create ();
      fw1 = tally ~d:p.Params.d_h ~extra:1 ();
      fw1_lane = Vec.create ();
      fw2 = tally ~capacity:32 ~d:p.Params.d_h ~extra:1 ();
      answer_counts = Int_table.create ();
      muted = Vec.create ();
      deferred_src = Vec.create ();
      deferred_msg = Vec.create ();
      push_sent = 0;
    }
  in
  ignore (Int_table.add st.candidates sid0);
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
let receive_into_impl cfg st ~round:_ ~src m ~emit = dispatch cfg st ~emit ~src m

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

let decided st = output st

let candidates st =
  let acc = ref [] in
  Int_table.iter (fun sid _ -> acc := Intern.string st.intern sid :: !acc) st.candidates;
  !acc

let candidate_count st = Int_table.length st.candidates
let fw1_entries st = (Int_table.length st.fw1_seen, Int_table.length st.fw1.at)
let push_messages_sent st = st.push_sent
