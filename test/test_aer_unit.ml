(* Message-level unit tests of AER's handlers (Algorithms 1–3): drive
   a single node's state machine with hand-crafted messages whose
   quorum membership we compute from the shared samplers, and check
   each filter in isolation. *)

open Fba_stdx
open Fba_core
module Sampler = Fba_samplers.Sampler

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

(* The protocol runs on the packed plane; these tests reason at the
   variant level, so the helpers pack on the way in and unpack on the
   way out. *)
let unpack_outs cfg outs = List.map (fun (dst, m) -> (dst, Aer.unpack cfg m)) outs

(* No engine runs here, so no [Aer.compile] either: [init] must build
   the compiled tables itself on first use. *)
let init_node cfg id =
  let ctx = Fba_sim.Ctx.make ~n ~id ~seed:77L in
  let st, outs = Aer.init cfg ctx in
  Alcotest.(check bool) "init builds the compiled tables" true (Aer.config_compiled cfg <> None);
  (st, unpack_outs cfg outs)

(* Find a correct, ignorant node to exercise. *)
let pick_ignorant sc =
  let rec loop i =
    if i >= n then Alcotest.fail "no ignorant node"
    else if Scenario.is_correct sc i && not (Scenario.knows_gstring sc i) then i
    else loop (i + 1)
  in
  loop 0

let push_quorum params ~s ~x = Sampler.quorum_sx (Params.sampler_i params) ~s ~x

let deliver cfg st ~src msg =
  unpack_outs cfg (Aer.on_receive cfg st ~round:1 ~src (Aer.pack cfg msg))

let test_push_requires_membership () =
  let params, sc, cfg = make_env () in
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
    ignore (deliver cfg st ~src:outsider (Msg.Push g))
  done;
  Alcotest.(check bool) "outsider pushes ignored" false (List.mem g (Aer.candidates st))

let test_push_majority_threshold () =
  let params, sc, cfg = make_env () in
  let x = pick_ignorant sc in
  let st, _ = init_node cfg x in
  let g = sc.Scenario.gstring in
  let quorum = push_quorum params ~s:g ~x in
  let maj = Params.majority_i params in
  (* One below the majority: not accepted. *)
  for i = 0 to maj - 2 do
    ignore (deliver cfg st ~src:quorum.(i) (Msg.Push g))
  done;
  Alcotest.(check bool) "below majority: not a candidate" false (List.mem g (Aer.candidates st));
  (* Duplicates from the same member must not count twice. *)
  for _ = 1 to 5 do
    ignore (deliver cfg st ~src:quorum.(0) (Msg.Push g))
  done;
  Alcotest.(check bool) "duplicates don't count" false (List.mem g (Aer.candidates st));
  (* The majority-th distinct member tips it, and the node immediately
     polls (Algorithm 1): d_j Polls + d_h Pulls. *)
  let outs = deliver cfg st ~src:quorum.(maj - 1) (Msg.Push g) in
  Alcotest.(check bool) "accepted at majority" true (List.mem g (Aer.candidates st));
  let polls = List.filter (fun (_, m) -> match m with Msg.Poll _ -> true | _ -> false) outs in
  let pulls = List.filter (fun (_, m) -> match m with Msg.Pull _ -> true | _ -> false) outs in
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
  let g = sc.Scenario.gstring in
  (* Find a requester x with y ∈ H(g, x). *)
  let h = Params.sampler_h params in
  let x =
    let rec loop i =
      if i >= n then Alcotest.fail "no requester found"
      else if Sampler.mem_sx h ~s:g ~x:i ~y && i <> y then i
      else loop (i + 1)
    in
    loop 0
  in
  let outs1 = deliver cfg st ~src:x (Msg.Pull { s = g; r = 9L }) in
  let fw1s = List.filter (fun (_, m) -> match m with Msg.Fw1 _ -> true | _ -> false) outs1 in
  Alcotest.(check int) "Fw1 fan-out = d_j * d_h"
    Params.(params.d_j * params.d_h)
    (List.length fw1s);
  (* Same (x, s) again — even with a fresh label — must be dropped
     (Algorithm 2's flooding note; label budget = max_poll_attempts = 1). *)
  let outs2 = deliver cfg st ~src:x (Msg.Pull { s = g; r = 10L }) in
  Alcotest.(check int) "pull dedup" 0 (List.length outs2);
  (* A requester x' with y ∉ H(g, x') is refused. *)
  let x' =
    let rec loop i =
      if i >= n then Alcotest.fail "no non-member requester"
      else if (not (Sampler.mem_sx h ~s:g ~x:i ~y)) && i <> y then i
      else loop (i + 1)
    in
    loop 0
  in
  let outs3 = deliver cfg st ~src:x' (Msg.Pull { s = g; r = 11L }) in
  Alcotest.(check int) "non-member pull refused" 0 (List.length outs3)

let test_answer_requires_poll_list_membership () =
  let params, sc, cfg = make_env () in
  let x = pick_ignorant sc in
  let st, outs0 = init_node cfg x in
  (* The node polled for its own initial junk candidate at init; its
     poll label is in the Poll messages it just sent. *)
  let r, poll_targets =
    match
      List.filter_map
        (fun (dst, m) -> match m with Msg.Poll { r; _ } -> Some (r, dst) | _ -> None)
        outs0
    with
    | (r, dst) :: rest -> (r, dst :: List.map snd rest)
    | [] -> Alcotest.fail "no initial poll"
  in
  ignore r;
  let junk = sc.Scenario.initial.(x) in
  (* Answers from outside J(x, r) never count: send d_j of them from
     non-members. *)
  let non_members =
    List.filter (fun i -> (not (List.mem i poll_targets)) && i <> x) (List.init n (fun i -> i))
  in
  List.iteri
    (fun i src -> if i < Params.(params.d_j) then ignore (deliver cfg st ~src (Msg.Answer junk)))
    non_members;
  Alcotest.(check (option string)) "outsider answers don't decide" None (Aer.decided st);
  (* A majority of genuine poll-list members does decide. *)
  let maj = Params.majority_j params in
  List.iteri
    (fun i src -> if i < maj then ignore (deliver cfg st ~src (Msg.Answer junk)))
    poll_targets;
  Alcotest.(check (option string)) "majority of J decides" (Some junk) (Aer.decided st)

let test_answer_dedup_per_sender () =
  let params, sc, cfg = make_env () in
  let x = pick_ignorant sc in
  let st, outs0 = init_node cfg x in
  let poll_targets =
    List.filter_map (fun (dst, m) -> match m with Msg.Poll _ -> Some dst | _ -> None) outs0
  in
  let junk = sc.Scenario.initial.(x) in
  (* One member answering many times must not reach the majority. *)
  (match poll_targets with
  | w :: _ ->
    for _ = 1 to 3 * Params.(params.d_j) do
      ignore (deliver cfg st ~src:w (Msg.Answer junk))
    done
  | [] -> Alcotest.fail "no poll targets");
  Alcotest.(check (option string)) "repeated answers don't decide" None (Aer.decided st)

let test_decision_is_monotone () =
  let params, sc, cfg = make_env () in
  ignore params;
  let x = pick_ignorant sc in
  let st, outs0 = init_node cfg x in
  let poll_targets =
    List.filter_map (fun (dst, m) -> match m with Msg.Poll _ -> Some dst | _ -> None) outs0
  in
  let junk = sc.Scenario.initial.(x) in
  List.iter (fun src -> ignore (deliver cfg st ~src (Msg.Answer junk))) poll_targets;
  let first = Aer.decided st in
  Alcotest.(check bool) "decided" true (first <> None);
  (* Further pushes and answers must not change the decision. *)
  let g = sc.Scenario.gstring in
  Array.iter
    (fun src -> ignore (deliver cfg st ~src (Msg.Push g)))
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
  let g = sc.Scenario.gstring in
  let j = Params.sampler_j params in
  (* Find (x, r) with w ∈ J(x, r). *)
  let x = ref (-1) and r = ref 0L in
  (try
     for cand_x = 0 to n - 1 do
       for cand_r = 1 to 50 do
         if !x < 0 && Sampler.mem_xr j ~x:cand_x ~r:(Int64.of_int cand_r) ~y:w && cand_x <> w
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
  ignore (deliver cfg st ~src:!x (Msg.Poll { s = g; r = !r }));
  (* Fw2s from nodes outside H(g, w) must never produce an answer. *)
  let h = Params.sampler_h params in
  let outsiders =
    List.filter (fun i -> (not (Sampler.mem_sx h ~s:g ~x:w ~y:i)) && i <> w)
      (List.init n (fun i -> i))
  in
  let answers = ref 0 in
  List.iter
    (fun z ->
      List.iter
        (fun (_, m) -> match m with Msg.Answer _ -> incr answers | _ -> ())
        (deliver cfg st ~src:z (Msg.Fw2 { x = !x; s = g; r = !r })))
    outsiders;
  Alcotest.(check int) "no answers from outsider Fw2s" 0 !answers;
  (* A majority of genuine H(g, w) members does trigger the answer. *)
  let members = Sampler.quorum_sx h ~s:g ~x:w in
  List.iter
    (fun z ->
      List.iter
        (fun (dst, m) ->
          match m with
          | Msg.Answer s -> if dst = !x && s = g then incr answers
          | _ -> ())
        (deliver cfg st ~src:z (Msg.Fw2 { x = !x; s = g; r = !r })))
    (Array.to_list members);
  Alcotest.(check int) "answered exactly once" 1 !answers

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
  let fw1 ?(r = r) ~src w = deliver cfg st ~src (Msg.Fw1 { x; s = g; r; w }) in
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
  List.iter
    (fun (_, m) ->
      Alcotest.(check bool) "burst carries Fw2(x, g, r)" true (m = Msg.Fw2 { x; s = g; r }))
    burst;
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
  Alcotest.(check bool) "fresh label: exactly one Fw2, to w, under that label" true
    (fw1 ~r:r2 ~src:senders.(1) w2 = [ (w2, Msg.Fw2 { x; s = g; r = r2 }) ]);
  Alcotest.(check int) "fresh label repeated: nothing" 0
    (List.length (fw1 ~r:r2 ~src:senders.(2) w2))

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
        Alcotest.test_case "fw1: sender filter, majority burst, wire order" `Quick test_fw1_burst;
      ] );
  ]
