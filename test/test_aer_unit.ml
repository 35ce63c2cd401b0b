(* Message-level unit tests of AER's handlers (Algorithms 1–3): drive
   a single node's state machine with hand-crafted messages whose
   quorum membership we compute from the shared samplers, and check
   each filter in isolation. *)

open Fba_stdx
open Fba_core
module Sampler = Fba_samplers.Sampler
module Packed = Msg.Packed

let n = 64

(* A scenario where node [node] is correct but ignorant, so its
   acceptance of gstring is driven purely by the pushes we craft. *)
let make_env ?(seed = 77L) () =
  let params = Params.make ~n ~seed ~d_i:8 ~d_h:8 ~d_j:8 ~gstring_bits:48 () in
  let rng = Prng.create 5L in
  let sc =
    Scenario.make ~junk:Scenario.Junk_default ~params ~rng ~byzantine_fraction:0.1
      ~knowledgeable_fraction:0.8 ()
  in
  (params, sc, Aer.config_of_scenario sc)

(* No engine runs here, so no [Aer.compile] either: [init] must build
   the compiled tables itself on first use. *)
let init_node cfg id =
  let ctx = Fba_sim.Ctx.make ~n ~id ~seed:77L in
  let st, outs = Aer.init cfg ctx in
  Alcotest.(check bool) "init builds the compiled tables" true (Aer.config_compiled cfg <> None);
  (st, outs)

(* Find a correct, ignorant node to exercise. *)
let pick_ignorant sc =
  let rec loop i =
    if i >= n then Alcotest.fail "no ignorant node"
    else if Scenario.is_correct sc i && not (Scenario.knows_gstring sc i) then i
    else loop (i + 1)
  in
  loop 0

let push_quorum params ~s ~x = Sampler.quorum_sx (Params.sampler_i params) ~s ~x

let deliver cfg st ~src msg = Aer.on_receive cfg st ~round:1 ~src msg

(* The poll-list members a node polled, in its sends' order. *)
let polled outs = List.map fst (Words.tagged Packed.tag_poll outs)

let test_push_requires_membership () =
  let params, sc, cfg = make_env () in
  let wd = Words.of_scenario sc in
  let x = pick_ignorant sc in
  let st, _ = init_node cfg x in
  let g = sc.Scenario.gstring in
  let quorum = push_quorum params ~s:g ~x in
  (* A sender outside I(g, x) must be ignored even if it floods. *)
  let outsider =
    let rec loop i = if Array.exists (fun v -> v = i) quorum then loop (i + 1) else i in
    loop 0
  in
  for _ = 1 to 20 do
    ignore (deliver cfg st ~src:outsider (Words.push wd g))
  done;
  Alcotest.(check bool) "outsider pushes ignored" false (List.mem g (Aer.candidates st))

let test_push_majority_threshold () =
  let params, sc, cfg = make_env () in
  let wd = Words.of_scenario sc in
  let x = pick_ignorant sc in
  let st, _ = init_node cfg x in
  let g = sc.Scenario.gstring in
  let quorum = push_quorum params ~s:g ~x in
  let maj = Params.majority_i params in
  (* One below the majority: not accepted. *)
  for i = 0 to maj - 2 do
    ignore (deliver cfg st ~src:quorum.(i) (Words.push wd g))
  done;
  Alcotest.(check bool) "below majority: not a candidate" false (List.mem g (Aer.candidates st));
  (* Duplicates from the same member must not count twice. *)
  for _ = 1 to 5 do
    ignore (deliver cfg st ~src:quorum.(0) (Words.push wd g))
  done;
  Alcotest.(check bool) "duplicates don't count" false (List.mem g (Aer.candidates st));
  (* The majority-th distinct member tips it, and the node immediately
     polls (Algorithm 1): d_j Polls + d_h Pulls. *)
  let outs = deliver cfg st ~src:quorum.(maj - 1) (Words.push wd g) in
  Alcotest.(check bool) "accepted at majority" true (List.mem g (Aer.candidates st));
  let polls = Words.tagged Packed.tag_poll outs in
  let pulls = Words.tagged Packed.tag_pull outs in
  Alcotest.(check int) "polls to J list" Params.(params.d_j) (List.length polls);
  Alcotest.(check int) "pulls to H quorum" Params.(params.d_h) (List.length pulls)

let test_pull_membership_and_dedup () =
  let params, sc, cfg = make_env () in
  (* Use a knowledgeable node as the proxy y; it believes gstring. *)
  let y =
    let rec loop i = if Scenario.knows_gstring sc i then i else loop (i + 1) in
    loop 0
  in
  let st, _ = init_node cfg y in
  let wd = Words.of_scenario sc in
  let g = sc.Scenario.gstring in
  (* Find a requester x with y ∈ H(g, x). *)
  let h = Params.sampler_h params in
  let x =
    let rec loop i =
      if i >= n then Alcotest.fail "no requester found"
      else if Array.mem y (Sampler.quorum_sx h ~s:g ~x:i) && i <> y then i
      else loop (i + 1)
    in
    loop 0
  in
  let outs1 = deliver cfg st ~src:x (Words.pull wd g ~r:9L) in
  let fw1s = Words.tagged Packed.tag_fw1 outs1 in
  Alcotest.(check int) "Fw1 fan-out = d_j * d_h"
    Params.(params.d_j * params.d_h)
    (List.length fw1s);
  (* Same (x, s) again — even with a fresh label — must be dropped
     (Algorithm 2's flooding note; label budget = max_poll_attempts = 1). *)
  let outs2 = deliver cfg st ~src:x (Words.pull wd g ~r:10L) in
  Alcotest.(check int) "pull dedup" 0 (List.length outs2);
  (* A requester x' with y ∉ H(g, x') is refused. *)
  let x' =
    let rec loop i =
      if i >= n then Alcotest.fail "no non-member requester"
      else if (not (Array.mem y (Sampler.quorum_sx h ~s:g ~x:i))) && i <> y then i
      else loop (i + 1)
    in
    loop 0
  in
  let outs3 = deliver cfg st ~src:x' (Words.pull wd g ~r:11L) in
  Alcotest.(check int) "non-member pull refused" 0 (List.length outs3)

let test_answer_requires_poll_list_membership () =
  let params, sc, cfg = make_env () in
  let wd = Words.of_scenario sc in
  let x = pick_ignorant sc in
  let st, outs0 = init_node cfg x in
  (* The node polled for its own initial junk candidate at init. *)
  let poll_targets = polled outs0 in
  if poll_targets = [] then Alcotest.fail "no initial poll";
  let junk = sc.Scenario.initial.(x) in
  (* Answers from outside J(x, r) never count: send d_j of them from
     non-members. *)
  let non_members =
    List.filter (fun i -> (not (List.mem i poll_targets)) && i <> x) (List.init n (fun i -> i))
  in
  List.iteri
    (fun i src ->
      if i < Params.(params.d_j) then ignore (deliver cfg st ~src (Words.answer wd junk)))
    non_members;
  Alcotest.(check (option string)) "outsider answers don't decide" None (Aer.decided st);
  (* A majority of genuine poll-list members does decide. *)
  let maj = Params.majority_j params in
  List.iteri
    (fun i src -> if i < maj then ignore (deliver cfg st ~src (Words.answer wd junk)))
    poll_targets;
  Alcotest.(check (option string)) "majority of J decides" (Some junk) (Aer.decided st)

let test_answer_dedup_per_sender () =
  let params, sc, cfg = make_env () in
  let wd = Words.of_scenario sc in
  let x = pick_ignorant sc in
  let st, outs0 = init_node cfg x in
  let poll_targets = polled outs0 in
  let junk = sc.Scenario.initial.(x) in
  (* One member answering many times must not reach the majority. *)
  (match poll_targets with
  | w :: _ ->
    for _ = 1 to 3 * Params.(params.d_j) do
      ignore (deliver cfg st ~src:w (Words.answer wd junk))
    done
  | [] -> Alcotest.fail "no poll targets");
  Alcotest.(check (option string)) "repeated answers don't decide" None (Aer.decided st)

let test_decision_is_monotone () =
  let _params, sc, cfg = make_env () in
  let wd = Words.of_scenario sc in
  let x = pick_ignorant sc in
  let st, outs0 = init_node cfg x in
  let junk = sc.Scenario.initial.(x) in
  List.iter (fun src -> ignore (deliver cfg st ~src (Words.answer wd junk))) (polled outs0);
  let first = Aer.decided st in
  Alcotest.(check bool) "decided" true (first <> None);
  (* Further pushes and answers must not change the decision. *)
  let g = sc.Scenario.gstring in
  Array.iter
    (fun src -> ignore (deliver cfg st ~src (Words.push wd g)))
    (Sampler.quorum_sx (Params.sampler_i sc.Scenario.params) ~s:g ~x);
  Alcotest.(check bool) "decision unchanged" true (Aer.decided st = first)

let test_fw2_requires_h_membership () =
  let params, sc, cfg = make_env () in
  (* w receives Fw2s for a poll it was named in; senders must sit in
     H(s, w). Use a knowledgeable node as w and its own belief as s. *)
  let w =
    let rec loop i = if Scenario.knows_gstring sc i then i else loop (i + 1) in
    loop 0
  in
  let st, _ = init_node cfg w in
  let wd = Words.of_scenario sc in
  let g = sc.Scenario.gstring in
  let j = Params.sampler_j params in
  (* Find (x, r) with w ∈ J(x, r). *)
  let x = ref (-1) and r = ref 0L in
  (try
     for cand_x = 0 to n - 1 do
       for cand_r = 1 to 50 do
         if
           !x < 0
           && Array.mem w (Sampler.quorum_xr j ~x:cand_x ~r:(Int64.of_int cand_r))
           && cand_x <> w
         then begin
           x := cand_x;
           r := Int64.of_int cand_r;
           raise Exit
         end
       done
     done
   with Exit -> ());
  Alcotest.(check bool) "found a poll naming w" true (!x >= 0);
  (* Register the poll. *)
  ignore (deliver cfg st ~src:!x (Words.poll wd g ~r:!r));
  (* Fw2s from nodes outside H(g, w) must never produce an answer. *)
  let h = Params.sampler_h params in
  let outsiders =
    List.filter (fun i -> (not (Array.mem i (Sampler.quorum_sx h ~s:g ~x:w))) && i <> w)
      (List.init n (fun i -> i))
  in
  let answers = ref 0 in
  let fw2 z = deliver cfg st ~src:z (Words.fw2 wd ~x:!x g ~r:!r) in
  List.iter (fun z -> answers := !answers + List.length (fw2 z)) outsiders;
  Alcotest.(check int) "no answers from outsider Fw2s" 0 !answers;
  (* A majority of genuine H(g, w) members does trigger the answer. *)
  let members = Sampler.quorum_sx h ~s:g ~x:w in
  let answer = (!x, Words.answer wd g) in
  Array.iter
    (fun z -> answers := !answers + List.length (List.filter (( = ) answer) (fw2 z)))
    members;
  Alcotest.(check int) "answered exactly once" 1 !answers

(* Algorithm 3 under reordering: w's Fw2 majority for (g, x) arrives
   before x's Poll and answers nothing; the Poll then answers x once,
   and neither a repeated Poll nor later Fw2 copies answer again. *)
let test_fw2_before_poll () =
  let params, sc, cfg = make_env () in
  let w = List.find (Scenario.knows_gstring sc) (List.init n Fun.id) in
  let st, _ = init_node cfg w in
  let wd = Words.of_scenario sc in
  let g = sc.Scenario.gstring and j = Params.sampler_j params in
  let x, r =
    List.init n (fun x -> List.init 50 (fun r -> (x, Int64.of_int (r + 1))))
    |> List.concat
    |> List.find (fun (x, r) -> x <> w && Array.mem w (Sampler.quorum_xr j ~x ~r))
  in
  let members = Sampler.quorum_sx (Params.sampler_h params) ~s:g ~x:w in
  let maj = Params.majority_h params in
  let fw2 k = deliver cfg st ~src:members.(k) (Words.fw2 wd ~x g ~r) in
  let poll () = deliver cfg st ~src:x (Words.poll wd g ~r) in
  let quiet what outs = Alcotest.(check int) what 0 (List.length outs) in
  for k = 0 to maj - 1 do
    quiet "Fw2 before the Poll: no answer" (fw2 k)
  done;
  Alcotest.check (Words.sends wd) "the Poll answers x once" [ (x, Words.answer wd g) ] (poll ());
  quiet "a repeated Poll: nothing" (poll ());
  for k = maj to Array.length members - 1 do
    quiet "a later Fw2 copy: nothing" (fw2 k)
  done

(* The re-poll extension: with two attempts, [on_round] re-issues an
   unanswered poll under a fresh label r2, and answers count afresh
   against J(x, r2). Answers under r1 come from J(x, r1)'s last
   positions and under r2 from J(x, r2)'s first, so a count carried
   over would decide early. *)
let test_repoll_counts_afresh () =
  let params =
    Params.make ~n ~seed:77L ~d_i:8 ~d_h:8 ~d_j:8 ~gstring_bits:48 ~max_poll_attempts:2 ()
  in
  let sc =
    Scenario.make ~junk:Scenario.Junk_default ~params ~rng:(Prng.create 5L)
      ~byzantine_fraction:0.1 ~knowledgeable_fraction:0.8 ()
  in
  let cfg = Aer.config_of_scenario sc in
  let wd = Words.of_scenario sc in
  let x = pick_ignorant sc in
  let st, outs0 = init_node cfg x in
  (* (label id, member) for each Poll sent. *)
  let polls outs =
    List.map (fun (y, p) -> (Packed.rid wd.Words.lt p, y)) (Words.tagged Packed.tag_poll outs)
  in
  let first = polls outs0 in
  let junk = sc.Scenario.initial.(x) in
  let answer src = ignore (deliver cfg st ~src (Words.answer wd junk)) in
  let maj = Params.majority_j params in
  let undecided what = Alcotest.(check (option string)) what None (Aer.decided st) in
  List.iteri (fun i (_, y) -> if i > Params.(params.d_j) - maj then answer y) first;
  undecided "one answer short under r1";
  let timeout = params.Params.repoll_timeout in
  Alcotest.(check int) "no re-poll before the timeout" 0
    (List.length (Aer.on_round cfg st ~round:(timeout - 1)));
  let second = polls (Aer.on_round cfg st ~round:timeout) in
  Alcotest.(check int) "the re-poll polls a full list" Params.(params.d_j) (List.length second);
  Alcotest.(check bool) "under a fresh label" true (fst (List.hd first) <> fst (List.hd second));
  let j2 = List.map snd second in
  List.iteri (fun i y -> if i < maj - 1 then answer y) j2;
  undecided "below the majority of J(x, r2)";
  answer (snd (List.find (fun (_, y) -> not (List.mem y j2)) first));
  undecided "a member of J(x, r1) only is refused";
  answer (List.nth j2 (maj - 1));
  Alcotest.(check (option string)) "the majority-th member of J(x, r2) decides" (Some junk)
    (Aer.decided st)

(* Algorithm 2's second handler on one (s, x) whose forwarding state
   crosses every representation boundary. d_h = n puts every node in
   every pull quorum, so each relay and sender check passes and sender
   positions reach the second 62-bit mask word; d_j = 40 gives the pair
   40 targets, past the 17- and 33-binding resizes of a
   [Hashtbl.create 8]. The serve-all burst's wire order is the one the
   historical per-pair table produced: a fresh [Hashtbl.create 8] fed
   the targets in first-verified order, walked, and reversed (the walk
   consed). *)
let test_fw1_burst () =
  let params = Params.make ~n ~seed:77L ~d_i:8 ~d_h:n ~d_j:40 ~gstring_bits:48 () in
  let sc =
    Scenario.make ~junk:Scenario.Junk_default ~params ~rng:(Prng.create 5L)
      ~byzantine_fraction:0.1 ~knowledgeable_fraction:0.8 ()
  in
  let cfg = Aer.config_of_scenario sc in
  let maj = Params.majority_h params in
  Alcotest.(check int) "majority_h" 33 maj;
  let z =
    let rec loop i = if Scenario.knows_gstring sc i then i else loop (i + 1) in
    loop 0
  in
  let st, _ = init_node cfg z in
  let wd = Words.of_scenario sc in
  let g = sc.Scenario.gstring in
  let x = if z = 0 then 1 else 0 in
  let r = 0x5EEDL in
  let j = Params.sampler_j params in
  let targets = Sampler.quorum_xr j ~x ~r in
  Alcotest.(check int) "40 targets" 40 (Array.length targets);
  (* Senders walk H(g, x) from its last position down, so the first two
     sit at positions 63 and 62 — the second mask word. *)
  let hq = Sampler.quorum_sx (Params.sampler_h params) ~s:g ~x in
  let senders =
    Array.of_list (List.filter (fun y -> y <> z) (List.rev (Array.to_list hq)))
  in
  let fw1 ?(r = r) ~src w = deliver cfg st ~src (Words.fw1 wd ~x g ~r ~w) in
  let outsider = List.find (fun w -> not (Array.mem w targets)) (List.init n Fun.id) in
  (* First-verified order: a shuffle of the targets. Sender k forwards
     the window order.(k .. k+7), so each of the first 32 senders
     verifies one new target (the first verifies eight) and repeats
     older ones; the 40th target comes with the burst. *)
  let order = Array.init 40 Fun.id in
  Prng.shuffle (Prng.create 13L) order;
  let pre = ref [] in
  for k = 0 to maj - 2 do
    for i = k to k + 7 do
      pre := fw1 ~src:senders.(k) targets.(order.(i)) @ !pre
    done;
    (* A repeated sender does not count twice. *)
    pre := fw1 ~src:senders.(0) targets.(order.(k)) @ !pre
  done;
  (* A fresh sender naming a w outside J(x, r) is not counted either:
     were it the 33rd sender, the burst would fire here. *)
  pre := fw1 ~src:senders.(maj + 1) outsider @ !pre;
  Alcotest.(check int) "no Fw2 before the 33rd distinct sender" 0 (List.length !pre);
  let model = Hashtbl.create 8 in
  Array.iter (fun i -> Hashtbl.add model targets.(i) r) order;
  let wire = ref [] in
  Hashtbl.iter (fun w _ -> wire := w :: !wire) model;
  let verified = List.map (fun i -> targets.(i)) (Array.to_list order) in
  Alcotest.(check bool) "the model's order is neither insertion order nor its reverse" true
    (!wire <> verified && !wire <> List.rev verified);
  let burst = fw1 ~src:senders.(maj - 1) targets.(order.(39)) in
  Alcotest.(check (list int)) "burst: one Fw2 per target, in the historical wire order" !wire
    (List.map fst burst);
  let fw2 = Words.fw2 wd ~x g ~r in
  List.iter (fun (_, m) -> Alcotest.check (Words.word wd) "burst carries Fw2(x, g, r)" fw2 m) burst;
  Alcotest.(check int) "repeated w after the burst: nothing" 0
    (List.length (fw1 ~src:senders.(maj) targets.(order.(5))));
  Alcotest.(check int) "w outside J(x, r) after the burst: nothing" 0
    (List.length (fw1 ~src:senders.(maj) outsider));
  (* A label whose poll list names a w the burst did not serve. *)
  let r2, w2 =
    let rec loop r2 =
      let j2 = Array.to_list (Sampler.quorum_xr j ~x ~r:r2) in
      match List.find_opt (fun w -> not (Array.mem w targets)) j2 with
      | Some w2 -> (r2, w2)
      | None -> loop (Int64.succ r2)
    in
    loop (Int64.succ r)
  in
  Alcotest.check (Words.sends wd) "fresh label: exactly one Fw2, to w, under that label"
    [ (w2, Words.fw2 wd ~x g ~r:r2) ]
    (fw1 ~r:r2 ~src:senders.(1) w2);
  Alcotest.(check int) "fresh label repeated: nothing" 0
    (List.length (fw1 ~r:r2 ~src:senders.(2) w2))

(* Algorithm 2's second handler checks three things for a relay y's
   Fw1(x, s, r, w): this node ∈ H(s, w), w ∈ J(x, r) and y ∈ H(s, x).
   Only the last differs between the copies of one (s, x, w, r), so a
   target keeps the label it was first verified under. A copy naming
   another label, or sent from outside H(s, x), must still not count
   towards the relay majority. d_h = 8 leaves H(g, x) outsiders. *)
let test_fw1_verification_cache () =
  let params, sc, cfg = make_env () in
  let wd = Words.of_scenario sc in
  let g = sc.Scenario.gstring in
  let h = Params.sampler_h params and j = Params.sampler_j params in
  let z =
    let rec loop i = if Scenario.knows_gstring sc i then i else loop (i + 1) in
    loop 0
  in
  let st, _ = init_node cfg z in
  (* A poller x, a label r and a w ∈ J(x, r) with z ∈ H(g, w). *)
  let x, r, w =
    let rec loop x r =
      if x >= n then Alcotest.fail "no target names z"
      else if x = z || r > 50L then loop (x + 1) 1L
      else
        match
          List.find_opt
            (fun w -> Array.mem z (Sampler.quorum_sx h ~s:g ~x:w))
            (Array.to_list (Sampler.quorum_xr j ~x ~r))
        with
        | Some w -> (x, r, w)
        | None -> loop x (Int64.succ r)
    in
    loop 0 1L
  in
  let r2 =
    let rec loop r2 =
      if Array.mem w (Sampler.quorum_xr j ~x ~r:r2) then loop (Int64.succ r2) else r2
    in
    loop (Int64.succ r)
  in
  let relays = Sampler.quorum_sx h ~s:g ~x in
  let outsider = List.find (fun y -> not (Array.mem y relays)) (List.init n Fun.id) in
  let maj = Params.majority_h params in
  let fw1 ?(r = r) src = deliver cfg st ~src (Words.fw1 wd ~x g ~r ~w) in
  for k = 0 to maj - 2 do
    Alcotest.(check int) "no Fw2 below the relay majority" 0 (List.length (fw1 relays.(k)))
  done;
  Alcotest.(check int) "a copy under a label whose poll list leaves out w: not counted" 0
    (List.length (fw1 ~r:r2 relays.(maj - 1)));
  Alcotest.(check int) "a copy from outside H(g, x): not counted" 0
    (List.length (fw1 outsider));
  Alcotest.check (Words.sends wd) "the majority relay's copy under r: exactly one Fw2, to w"
    [ (w, Words.fw2 wd ~x g ~r) ]
    (fw1 relays.(maj - 1))

(* Once a majority of H(s, x) has relayed, Algorithm 2 has sent its
   Fw2 to every verified target of (s, x) and serves each later target
   on its first verified copy; every other copy carries nothing. After
   the burst: a repeated copy from a relay not yet counted, a copy of
   the seen target under another label that also names it, and a copy
   from outside H(s, x) each emit nothing and add no entry, while a
   fresh target still gets exactly one Fw2. *)
let test_fw1_past_majority () =
  let params, sc, cfg = make_env () in
  let wd = Words.of_scenario sc in
  let g = sc.Scenario.gstring in
  let h = Params.sampler_h params and j = Params.sampler_j params in
  let z =
    let rec loop i = if Scenario.knows_gstring sc i then i else loop (i + 1) in
    loop 0
  in
  let st, _ = init_node cfg z in
  (* A label r and a target w ∈ J(x, r) with z ∈ H(g, w), skipping [skip]. *)
  let target ?(skip = -1) ~x r0 =
    let rec loop r =
      if r > Int64.add r0 200L then None
      else
        match
          List.find_opt
            (fun w -> w <> skip && Array.mem z (Sampler.quorum_sx h ~s:g ~x:w))
            (Array.to_list (Sampler.quorum_xr j ~x ~r))
        with
        | Some w -> Some (r, w)
        | None -> loop (Int64.succ r)
    in
    loop r0
  in
  let x, r, w =
    let rec loop x =
      if x >= n then Alcotest.fail "no target names z"
      else if x = z then loop (x + 1)
      else match target ~x 1L with Some (r, w) -> (x, r, w) | None -> loop (x + 1)
    in
    loop 0
  in
  let r_fresh, w_fresh =
    match target ~skip:w ~x (Int64.succ r) with
    | Some t -> t
    | None -> Alcotest.fail "no second target"
  in
  (* Another label whose poll list names w too: a copy under it passes
     all three checks, so only the count can set it aside. *)
  let r2 =
    let rec loop r2 =
      if Int64.equal r2 r || not (Array.mem w (Sampler.quorum_xr j ~x ~r:r2)) then
        loop (Int64.succ r2)
      else r2
    in
    loop 1L
  in
  let relays = Sampler.quorum_sx h ~s:g ~x in
  let outsider = List.find (fun y -> not (Array.mem y relays)) (List.init n Fun.id) in
  let maj = Params.majority_h params in
  let fw1 ?(r = r) ?(w = w) src = deliver cfg st ~src (Words.fw1 wd ~x g ~r ~w) in
  for k = 0 to maj - 2 do
    ignore (fw1 relays.(k))
  done;
  Alcotest.check (Words.sends wd) "the burst: one Fw2, to w" [ (w, Words.fw2 wd ~x g ~r) ]
    (fw1 relays.(maj - 1));
  let entries = Aer.fw1_entries st in
  Alcotest.(check (pair int int)) "one target, one (s, x) pair" (1, 1) entries;
  let quiet what outs =
    Alcotest.(check int) (what ^ ": nothing emitted") 0 (List.length outs);
    Alcotest.(check (pair int int)) (what ^ ": no entry added") entries (Aer.fw1_entries st)
  in
  quiet "a relay not yet counted" (fw1 relays.(maj));
  quiet "the seen target under another label" (fw1 ~r:r2 relays.(maj + 1));
  quiet "a copy from outside H(g, x)" (fw1 outsider);
  Alcotest.check (Words.sends wd) "a fresh target: exactly one Fw2, to it, under its label"
    [ (w_fresh, Words.fw2 wd ~x g ~r:r_fresh) ]
    (fw1 ~r:r_fresh ~w:w_fresh relays.(0));
  Alcotest.(check (pair int int)) "the fresh target is entered" (2, 1) (Aer.fw1_entries st)

let suites =
  [
    ( "core.aer.handlers",
      [
        Alcotest.test_case "push: membership filter" `Quick test_push_requires_membership;
        Alcotest.test_case "push: majority + dedup + poll trigger" `Quick
          test_push_majority_threshold;
        Alcotest.test_case "pull: membership + (x,s) dedup" `Quick test_pull_membership_and_dedup;
        Alcotest.test_case "answer: J-membership required" `Quick
          test_answer_requires_poll_list_membership;
        Alcotest.test_case "answer: per-sender dedup" `Quick test_answer_dedup_per_sender;
        Alcotest.test_case "decision monotone" `Quick test_decision_is_monotone;
        Alcotest.test_case "fw2: H-membership + single answer" `Quick
          test_fw2_requires_h_membership;
        Alcotest.test_case "fw2: majority before the poll, one answer" `Quick test_fw2_before_poll;
        Alcotest.test_case "answer: a re-poll counts afresh" `Quick test_repoll_counts_afresh;
        Alcotest.test_case "fw1: sender filter, majority burst, wire order" `Quick test_fw1_burst;
        Alcotest.test_case "fw1: verified once per label" `Quick test_fw1_verification_cache;
        Alcotest.test_case "fw1: copies past the majority change nothing" `Quick
          test_fw1_past_majority;
      ] );
  ]
