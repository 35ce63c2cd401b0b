open Fba_stdx
open Fba_core
module Attacks = Fba_adversary.Aer_attacks
module Corruption = Fba_adversary.Corruption
module Schedulers = Fba_adversary.Schedulers
module Engine = Fba_sim.Sync_engine.Make (Aer)

let mk_scenario ?(byz = 0.1) ?(kn = 0.85) ?(n = 96) seed =
  let params = Params.make_for ~n ~seed ~byzantine_fraction:byz ~knowledgeable_fraction:kn () in
  let rng = Prng.create (Int64.add seed 500L) in
  Scenario.make ~params ~rng ~byzantine_fraction:byz ~knowledgeable_fraction:kn ()

(* --- attack envelope hygiene: every strategy must only send from
   corrupted identities (the engine enforces it; these tests check the
   strategies never trip that check on a real run). --- *)

let run_with attack sc =
  let cfg = Aer.config_of_scenario sc in
  let n = Scenario.(sc.params.Params.n) in
  Engine.run ~config:cfg ~n ~seed:sc.Scenario.params.Params.seed ~adversary:(attack sc)
    ~mode:`Rushing ~max_rounds:100 ()

let test_attacks_are_well_formed () =
  let sc = mk_scenario 1L in
  List.iter
    (fun (name, attack) ->
      match run_with attack sc with
      | _ -> Alcotest.(check pass) name () ()
      | exception Invalid_argument msg ->
        Alcotest.failf "%s sent an invalid envelope: %s" name msg)
    [
      ("silent", Attacks.silent);
      ("push_flood", fun sc -> Attacks.push_flood sc);
      ("push_flood blast", fun sc -> Attacks.push_flood ~blast:true sc);
      ("wrong_answer", Attacks.wrong_answer);
      ("cornering", fun sc -> Attacks.cornering sc);
      ("quorum_capture", fun sc -> Attacks.quorum_capture sc);
      ("composed", fun sc -> Attacks.(compose sc [ push_flood sc; wrong_answer sc ]));
    ]

let test_compose_rejects_mismatched () =
  let sc1 = mk_scenario 2L in
  let sc2 = mk_scenario 3L in
  Alcotest.check_raises "different scenarios rejected"
    (Invalid_argument "Aer_attacks.compose: attacks built from different scenarios") (fun () ->
      ignore (Attacks.compose sc1 [ Attacks.silent sc1; Attacks.silent sc2 ]))

let test_push_flood_volume () =
  (* Smart flooding sends each fake string only to the quorums the
     sender sits in: per fake string at most ~(a*d_i) targets/sender. *)
  let sc = mk_scenario 4L in
  let attack = Attacks.push_flood ~fake_strings:2 sc in
  let envs = attack.Fba_sim.Sync_engine.act ~round:0 ~observed:(fun () -> []) in
  let t = Bitset.cardinal sc.Scenario.corrupted in
  let d_i = Params.(sc.Scenario.params.d_i) in
  Alcotest.(check bool) "nonempty" true (envs <> []);
  Alcotest.(check bool) "bounded by inverse-degree" true
    (List.length envs <= 2 * t * 4 * d_i);
  (* Idempotence: only fires in round 0. *)
  Alcotest.(check (list reject)) "fires once"
    []
    (List.map (fun _ -> ()) (attack.Fba_sim.Sync_engine.act ~round:1 ~observed:(fun () -> [])))

let test_cornering_budget () =
  (* Each corrupted node spends exactly one pull request: d_j polls +
     d_h pulls. *)
  let sc = mk_scenario ~byz:0.2 ~kn:0.8 5L in
  let attack = Attacks.cornering sc in
  (* feed it a synthetic observation: one honest poll (packed, like
     everything the engine would show it) *)
  let intern = sc.Scenario.intern in
  let observed =
    [
      Fba_sim.Envelope.make ~src:1 ~dst:2
        (Msg.Packed.pack sc.Scenario.layout intern
           (Msg.Poll { s = sc.Scenario.gstring; r = 5L }));
    ]
  in
  let envs = attack.Fba_sim.Sync_engine.act ~round:0 ~observed:(fun () -> observed) in
  let t = Bitset.cardinal sc.Scenario.corrupted in
  let expected = t * (Params.(sc.Scenario.params.d_j) + Params.(sc.Scenario.params.d_h)) in
  Alcotest.(check int) "budget = t*(d_j + d_h) messages" expected (List.length envs);
  List.iter
    (fun (e : Aer.msg Fba_sim.Envelope.t) ->
      Alcotest.(check bool) "from corrupted" true (Bitset.mem sc.Scenario.corrupted e.src);
      match Msg.Packed.unpack sc.Scenario.layout intern e.Fba_sim.Envelope.msg with
      | Msg.Poll { s; _ } | Msg.Pull { s; _ } ->
        Alcotest.(check string) "targets gstring" sc.Scenario.gstring s
      | _ -> Alcotest.fail "unexpected message kind")
    envs

let test_quorum_capture_strings_pass_filter () =
  (* Every push the capture attack sends must come from a member of the
     push quorum it targets (otherwise receivers drop it silently). *)
  let params = Params.make ~n:96 ~seed:6L ~d_i:12 ~d_h:12 ~d_j:12 () in
  let rng = Prng.create 7L in
  let sc = Scenario.make ~params ~rng ~byzantine_fraction:0.25 ~knowledgeable_fraction:0.7 () in
  let attack = Attacks.quorum_capture ~victims:2 ~strings_per_victim:4 sc in
  let envs = attack.Fba_sim.Sync_engine.act ~round:0 ~observed:(fun () -> []) in
  Alcotest.(check bool) "found capture strings" true (envs <> []);
  let si = Params.sampler_i params in
  List.iter
    (fun (e : Aer.msg Fba_sim.Envelope.t) ->
      match Msg.Packed.unpack sc.Scenario.layout sc.Scenario.intern e.Fba_sim.Envelope.msg with
      | Msg.Push s ->
        Alcotest.(check bool) "sender in I(s, victim)" true
          (Array.mem e.src (Fba_samplers.Sampler.quorum_sx si ~s ~x:e.dst))
      | _ -> Alcotest.fail "capture should only push")
    envs

(* --- forged out-of-range ids --- *)

(* At n = 96 the layout's node-id fields are 7 bits wide, so ids 96..127
   fit a packed word while naming no node. Fw1 and Fw2 messages that
   embed one must be dropped: the run ends as it does under a silent
   adversary, with no correct node sending anything more. *)
let test_forged_ids_dropped () =
  let seed = 1L in
  let silent = run_with Attacks.silent (mk_scenario seed) in
  let sc = mk_scenario seed in
  let n = Scenario.(sc.params.Params.n) in
  let lt = sc.Scenario.layout and intern = sc.Scenario.intern in
  let bad = n + 3 in
  Alcotest.(check bool) "the forged id fits the id field" true (bad < lt.Msg.Layout.max_n);
  let sid = Intern.intern intern sc.Scenario.gstring in
  let rid = Intern.intern_label intern 0xF0F0L in
  let forged =
    [
      Msg.Packed.fw1 lt ~sid ~rid ~x:0 ~w:bad;
      Msg.Packed.fw1 lt ~sid ~rid ~x:bad ~w:0;
      Msg.Packed.fw2 lt ~sid ~rid ~x:bad;
    ]
  in
  let byz = List.hd (Bitset.to_list sc.Scenario.corrupted) in
  let forging sc =
    {
      Fba_sim.Sync_engine.corrupted = sc.Scenario.corrupted;
      act =
        (fun ~round ~observed:_ ->
          if round > 0 then []
          else
            List.concat_map
              (fun dst ->
                if Scenario.is_correct sc dst then
                  List.map (fun m -> Fba_sim.Envelope.make ~src:byz ~dst m) forged
                else [])
              (List.init n Fun.id));
    }
  in
  let res = run_with forging sc in
  let sent r i = Fba_sim.Metrics.sent_messages_of r.Fba_sim.Sync_engine.metrics i in
  for i = 0 to n - 1 do
    if Scenario.is_correct sc i then begin
      Alcotest.(check (option string))
        (Printf.sprintf "node %d decides gstring" i)
        (Some sc.Scenario.gstring) res.Fba_sim.Sync_engine.outputs.(i);
      Alcotest.(check int) (Printf.sprintf "node %d sends as under silence" i) (sent silent i)
        (sent res i)
    end
  done

(* --- async_of_sync: the lifted observation window --- *)

let fields (e : Aer.msg Fba_sim.Envelope.t) = Fba_sim.Envelope.(e.src, e.dst, e.msg)

let injections (adv : Attacks.async) time =
  List.map (fun (e, d) -> (fields e, d)) (adv.Fba_sim.Async_engine.inject ~time)

let test_async_window () =
  (* Drive the lifted adversary by hand, as the async engine does:
     [observe] on every correct send, [inject] once per time step. With
     max_delay = 3 the sync strategy acts at times 0, 3, 6, ... on the
     sends since the previous window's [inject]. *)
  let sc = mk_scenario ~n:32 11L in
  let corrupted = sc.Scenario.corrupted in
  let byz = List.hd (Bitset.to_list corrupted) in
  let acts = ref [] in
  let recording =
    {
      Fba_sim.Sync_engine.corrupted;
      act =
        (fun ~round ~observed ->
          let first = observed () in
          let again = observed () in
          acts := (round, List.map fields first, List.map fields again) :: !acts;
          [ Fba_sim.Envelope.make ~src:byz ~dst:round (1000 + round) ]);
    }
  in
  let adv = Attacks.async_of_sync ~max_delay:3 sc recording in
  let send ~time ~src ~dst msg = adv.Fba_sim.Async_engine.observe ~time ~src ~dst msg in
  let inject = injections adv in
  let env = Alcotest.(triple int int int) in
  let window = Alcotest.(pair (list env) (list env)) in
  let injected = Alcotest.(list (pair env int)) in
  let last_act () =
    match !acts with
    | (_, first, again) :: _ -> (first, again)
    | [] -> Alcotest.fail "the strategy did not act"
  in
  send ~time:0 ~src:4 ~dst:5 40;
  send ~time:0 ~src:6 ~dst:7 41;
  Alcotest.check injected "round 0 injection, delay 1"
    [ ((byz, 0, 1000), 1) ]
    (inject 0);
  Alcotest.check window "round 0 window: the sends, in send order, twice"
    ([ (4, 5, 40); (6, 7, 41) ], [ (4, 5, 40); (6, 7, 41) ])
    (last_act ());
  send ~time:1 ~src:8 ~dst:9 42;
  Alcotest.check injected "no act between windows" [] (inject 1);
  send ~time:2 ~src:9 ~dst:8 43;
  Alcotest.check injected "no act between windows" [] (inject 2);
  send ~time:3 ~src:1 ~dst:2 44;
  Alcotest.check injected "round 1 injection" [ ((byz, 1, 1001), 1) ] (inject 3);
  Alcotest.check window "round 1 window: every send since the round 0 inject"
    ([ (8, 9, 42); (9, 8, 43); (1, 2, 44) ], [ (8, 9, 42); (9, 8, 43); (1, 2, 44) ])
    (last_act ());
  List.iter (fun t -> ignore (inject t)) [ 4; 5 ];
  Alcotest.check injected "round 2 injection" [ ((byz, 2, 1002), 1) ] (inject 6);
  Alcotest.check window "the next window starts empty" ([], []) (last_act ());
  Alcotest.(check (list int)) "one act per window" [ 2; 1; 0 ]
    (List.map (fun (r, _, _) -> r) !acts);
  (* A strategy that never looks still gets its injections. *)
  let blind =
    {
      Fba_sim.Sync_engine.corrupted;
      act = (fun ~round ~observed:_ -> [ Fba_sim.Envelope.make ~src:byz ~dst:(round + 1) 7 ]);
    }
  in
  let adv = Attacks.async_of_sync ~max_delay:2 sc blind in
  adv.observe ~time:0 ~src:4 ~dst:5 40;
  Alcotest.check injected "blind strategy, round 0" [ ((byz, 1, 7), 1) ] (injections adv 0);
  adv.observe ~time:1 ~src:4 ~dst:5 41;
  Alcotest.check injected "blind strategy, between windows" [] (injections adv 1);
  Alcotest.check injected "blind strategy, round 1" [ ((byz, 2, 7), 1) ] (injections adv 2)

(* --- async_cornering: the lifted cornering without the lift's log ---

   [async_cornering] counts the honest gstring polls sent at time 0 as
   they are sent and injects its plan at time 0; the reference lifts the
   sync [cornering] through [async_of_sync], which logs every send and
   hands cornering the time-0 window as envelopes. With the same delay,
   both must be the same execution: metrics, outputs and the traced
   event stream. Each run builds its own scenario (its interner grows
   during the run). *)

module Aer_async = Fba_sim.Async_engine.Make (Aer)

let traced_async ~n ~seed adversary =
  let sc = Fba_harness.Runner.scenario_of_setup Fba_harness.Runner.default_setup ~n ~seed in
  let buf = Buffer.create 65536 in
  let events = Fba_sim.Events.create () in
  Fba_sim.Events.attach events (Fba_sim.Events.Jsonl.consumer buf);
  let r =
    Aer_async.run ~events ~config:(Aer.config_of_scenario sc) ~n ~seed ~adversary:(adversary sc)
      ~max_time:4000 ()
  in
  (Fba_harness.Service.fingerprint r.metrics, r.outputs, Buffer.contents buf)

let lifted_cornering sc =
  {
    (Attacks.async_of_sync ~max_delay:4 sc (Attacks.cornering sc)) with
    Fba_sim.Async_engine.delay = (Attacks.async_cornering sc).Fba_sim.Async_engine.delay;
  }

(* Each seed runs at every n, so three seeds make nine (n, seed) cases. *)
let prop_async_cornering_lifted =
  QCheck.Test.make ~name:"async_cornering runs as the lifted cornering" ~count:3
    (QCheck.make ~print:(Printf.sprintf "seed=%Ld") QCheck.Gen.(map Int64.of_int (int_range 1 1000)))
    (fun seed ->
      List.for_all
        (fun n ->
          traced_async ~n ~seed Attacks.async_cornering = traced_async ~n ~seed lifted_cornering)
        [ 32; 64; 128 ])

(* --- Corruption --- *)

let test_corruption_random () =
  let rng = Prng.create 8L in
  let c = Corruption.random ~n:100 ~rng ~count:25 in
  Alcotest.(check int) "exact count" 25 (Bitset.cardinal c)

let test_corruption_adaptive_denies_gstring () =
  (* The adaptive adversary corrupts a majority of I(gstring, victim):
     the victim can never accept gstring — the capability the paper's
     non-adaptive assumption removes. *)
  let n = 96 in
  let params = Params.make_for ~n ~seed:9L ~byzantine_fraction:0.2 ~knowledgeable_fraction:0.8 () in
  let rng = Prng.create 10L in
  let gstring = Bytes.unsafe_to_string (Prng.bits rng params.Params.gstring_bits) in
  let victim = 0 in
  let t = n / 5 in
  let corrupted =
    Corruption.seize_push_quorum ~sampler_i:(Params.sampler_i params) ~gstring
      ~victims:[ victim ] ~n ~rng ~count:t
  in
  Alcotest.(check int) "budget respected" t (Bitset.cardinal corrupted);
  Alcotest.(check bool) "victim itself not corrupted" false (Bitset.mem corrupted victim);
  (* Build the scenario around this corruption via of_assignment. *)
  let initial =
    Array.init n (fun i ->
        if Bitset.mem corrupted i || i mod 7 = 0 then Printf.sprintf "junk-%d" i else gstring)
  in
  let sc = Scenario.of_assignment ~params ~gstring ~corrupted ~initial () in
  let res = run_with Attacks.silent sc in
  (match res.Fba_sim.Sync_engine.states.(victim) with
  | Some st ->
    Alcotest.(check bool) "victim never accepts gstring via push" false
      (List.mem gstring (Aer.candidates st) && not (Scenario.knows_gstring sc victim))
  | None -> Alcotest.fail "victim should be correct");
  (* The victim can only know gstring if it started with it. *)
  if not (Scenario.knows_gstring sc victim) then
    Alcotest.(check (option string)) "victim cannot decide gstring" None
      res.Fba_sim.Sync_engine.outputs.(victim)

(* --- Schedulers --- *)

let test_schedulers () =
  let corrupted = Bitset.of_list 4 [ 3 ] in
  Alcotest.(check int) "slow correct-correct" 5
    (Schedulers.slow_correct ~corrupted ~max_delay:5 ~time:0 ~src:1 ~dst:2 ());
  Alcotest.(check int) "fast byzantine" 1
    (Schedulers.slow_correct ~corrupted ~max_delay:5 ~time:0 ~src:3 ~dst:2 ())

let suites =
  [
    ( "adversary.attacks",
      [
        Alcotest.test_case "well-formed envelopes" `Quick test_attacks_are_well_formed;
        Alcotest.test_case "compose validation" `Quick test_compose_rejects_mismatched;
        Alcotest.test_case "push flood volume" `Quick test_push_flood_volume;
        Alcotest.test_case "cornering budget" `Quick test_cornering_budget;
        Alcotest.test_case "quorum capture passes filter" `Quick
          test_quorum_capture_strings_pass_filter;
        Alcotest.test_case "async_of_sync observation window" `Quick test_async_window;
        QCheck_alcotest.to_alcotest prop_async_cornering_lifted;
        Alcotest.test_case "forged out-of-range ids dropped" `Quick test_forged_ids_dropped;
      ] );
    ( "adversary.corruption",
      [
        Alcotest.test_case "random count" `Quick test_corruption_random;
        Alcotest.test_case "adaptive quorum seizure" `Quick
          test_corruption_adaptive_denies_gstring;
      ] );
    ("adversary.schedulers", [ Alcotest.test_case "delay policies" `Quick test_schedulers ]);
  ]
