open Fba_stdx
open Fba_sim

(* Toy ring protocol: node 0 starts a token that hops to the next
   identity each round; a node decides when the token reaches it. Node
   i therefore decides in round i (node 0 at init), which makes engine
   timing assertable. *)
module Ring = struct
  type config = { n : int }
  type msg = Token
  type state = { ctx : Ctx.t; mutable got : bool }

  let compile _ = ()

  let init cfg ctx =
    let st = { ctx; got = ctx.Ctx.id = 0 } in
    let outs = if ctx.Ctx.id = 0 then [ ((ctx.Ctx.id + 1) mod cfg.n, Token) ] else [] in
    (st, outs)

  let on_round _ _ ~round:_ = []

  let on_receive cfg st ~round:_ ~src:_ Token =
    if st.got then []
    else begin
      st.got <- true;
      [ ((st.ctx.Ctx.id + 1) mod cfg.n, Token) ]
    end

  let receive_into = None
  let output st = if st.got then Some "done" else None
  let msg_bits _ Token = 16
  let msg_tags _cfg = [| "Token" |]
  let msg_tag _cfg Token = 0
end

module Ring_sync = Sync_engine.Make (Ring)
module Ring_async = Async_engine.Make (Ring)

let no_corruption n = Bitset.create n

let test_sync_ring_timing () =
  let n = 6 in
  let res =
    Ring_sync.run ~config:{ Ring.n } ~n ~seed:1L
      ~adversary:(Sync_engine.null_adversary ~corrupted:(no_corruption n))
      ~mode:`Rushing ~max_rounds:20 ()
  in
  Alcotest.(check bool) "all decided" true res.Sync_engine.all_decided;
  for i = 0 to n - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "node %d decision round" i)
      (Some i)
      (Metrics.decision_round res.Sync_engine.metrics i)
  done

let test_sync_metrics_accounting () =
  let n = 4 in
  let res =
    Ring_sync.run ~config:{ Ring.n } ~n ~seed:1L
      ~adversary:(Sync_engine.null_adversary ~corrupted:(no_corruption n))
      ~mode:`Rushing ~max_rounds:20 ()
  in
  let m = res.Sync_engine.metrics in
  (* Each node sends the token exactly once (node 3 sends back to 0,
     who ignores it). *)
  Alcotest.(check int) "total messages" n (Metrics.total_messages_correct m);
  Alcotest.(check int) "total bits" (16 * n) (Metrics.total_bits_correct m);
  for i = 0 to n - 1 do
    Alcotest.(check int) "per-node sends" 1 (Metrics.sent_messages_of m i)
  done

let test_sync_byzantine_breaks_ring () =
  let n = 6 in
  let corrupted = Bitset.of_list n [ 3 ] in
  let res =
    Ring_sync.run ~config:{ Ring.n } ~n ~seed:1L
      ~adversary:(Sync_engine.null_adversary ~corrupted)
      ~mode:`Rushing ~max_rounds:50 ()
  in
  Alcotest.(check bool) "not all decided" false res.Sync_engine.all_decided;
  Alcotest.(check (option string)) "node 2 decided" (Some "done") res.Sync_engine.outputs.(2);
  Alcotest.(check (option string)) "node 4 starved" None res.Sync_engine.outputs.(4);
  (* Quiescence detection: the engine must stop shortly after the token
     dies at node 3, not spin to max_rounds. *)
  Alcotest.(check bool) "stops early" true (res.Sync_engine.rounds_used < 12)

let test_sync_adversary_validation () =
  let n = 4 in
  let corrupted = Bitset.of_list n [ 2 ] in
  let forged =
    {
      Sync_engine.corrupted;
      act =
        (fun ~round ~observed:_ ->
          if round = 0 then [ Envelope.make ~src:1 (* not corrupted! *) ~dst:0 Ring.Token ]
          else []);
    }
  in
  Alcotest.check_raises "forged sender rejected"
    (Invalid_argument "Sync_engine: adversary may only send from corrupted identities")
    (fun () ->
      ignore
        (Ring_sync.run ~config:{ Ring.n } ~n ~seed:1L ~adversary:forged ~mode:`Rushing
           ~max_rounds:5 ()))

let test_rushing_vs_non_rushing_observation () =
  let n = 4 in
  let corrupted = Bitset.of_list n [ 2 ] in
  (* The (src, dst) pairs the adversary observes in rounds 0..2. *)
  let spy mode =
    let seen = Array.make 3 [] in
    let adversary =
      {
        Sync_engine.corrupted;
        act =
          (fun ~round ~observed ->
            if round < 3 then
              seen.(round) <- List.map (fun (e : _ Envelope.t) -> (e.src, e.dst)) (observed ());
            []);
      }
    in
    ignore
      (Ring_sync.run ~config:{ Ring.n } ~n ~seed:1L ~adversary ~mode ~max_rounds:10 ());
    seen
  in
  let rushing = spy `Rushing and non_rushing = spy `Non_rushing in
  (* Rushing sees node 0's round-0 token; non-rushing sees nothing yet. *)
  Alcotest.(check int) "rushing sees current round" 1 (List.length rushing.(0));
  Alcotest.(check int) "non-rushing sees nothing in round 0" 0 (List.length non_rushing.(0));
  (* From then on non-rushing sees exactly the previous round's sends:
     the mailbox's previous-round window. *)
  for r = 0 to 1 do
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "non-rushing round %d sees rushing round %d" (r + 1) r)
      rushing.(r)
      non_rushing.(r + 1)
  done

let test_async_delays () =
  let n = 4 in
  let adversary =
    {
      (Async_engine.null_adversary ~corrupted:(no_corruption n)) with
      Async_engine.max_delay = 3;
      delay = (fun ~time:_ ~src:_ ~dst:_ _ -> 3);
    }
  in
  let res =
    Ring_async.run ~config:{ Ring.n } ~n ~seed:1L ~adversary ~max_time:100 ()
  in
  Alcotest.(check bool) "all decided" true res.Async_engine.all_decided;
  (* Token hop costs 3 time units: node i decides at time 3i. *)
  for i = 1 to n - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "node %d decision time" i)
      (Some (3 * i))
      (Metrics.decision_round res.Async_engine.metrics i)
  done;
  Alcotest.(check (float 0.01)) "normalized rounds" 3.0 res.Async_engine.normalized_rounds

let test_async_delay_clamping () =
  let n = 3 in
  let adversary =
    {
      (Async_engine.null_adversary ~corrupted:(no_corruption n)) with
      Async_engine.max_delay = 2;
      delay = (fun ~time:_ ~src:_ ~dst:_ _ -> 100);
      (* must be clamped to 2 *)
    }
  in
  let res = Ring_async.run ~config:{ Ring.n } ~n ~seed:1L ~adversary ~max_time:50 () in
  Alcotest.(check (option int)) "clamped delay" (Some 2)
    (Metrics.decision_round res.Async_engine.metrics 1)

(* The async engine keeps its pending messages in a calendar queue of
   [max_delay + 1] buckets indexed by [time mod width]; these two tests
   drive the token around that ring several times so bucket reuse and
   the wrap-around indexing are both exercised. *)
let test_async_calendar_wraparound () =
  let n = 4 in
  let adversary =
    {
      (Async_engine.null_adversary ~corrupted:(no_corruption n)) with
      Async_engine.max_delay = 2;
      (* width 3 *)
      delay = (fun ~time ~src:_ ~dst:_ _ -> 1 + (time mod 2));
    }
  in
  let res = Ring_async.run ~config:{ Ring.n } ~n ~seed:1L ~adversary ~max_time:100 () in
  Alcotest.(check bool) "all decided" true res.Async_engine.all_decided;
  (* Hops: 0->1 sent at t=0 (delay 1), 1->2 at t=1 (delay 2),
     2->3 at t=3 (delay 2): arrivals 1, 3, 5 — the width-3 bucket ring
     is reused on every lap. *)
  List.iteri
    (fun i expected ->
      Alcotest.(check (option int))
        (Printf.sprintf "node %d decision time" (i + 1))
        (Some expected)
        (Metrics.decision_round res.Async_engine.metrics (i + 1)))
    [ 1; 3; 5 ]

let test_async_calendar_mixed_delays () =
  let n = 5 in
  let adversary =
    {
      (Async_engine.null_adversary ~corrupted:(no_corruption n)) with
      Async_engine.max_delay = 3;
      (* width 4 *)
      delay = (fun ~time:_ ~src:_ ~dst _ -> if dst mod 2 = 0 then 1 else 3);
    }
  in
  let res = Ring_async.run ~config:{ Ring.n } ~n ~seed:1L ~adversary ~max_time:100 () in
  Alcotest.(check bool) "all decided" true res.Async_engine.all_decided;
  (* Arrivals 3, 4, 7, 8 land in buckets 3, 0, 3, 0 of the width-4
     ring: alternating delays make consecutive laps collide on the
     same bucket index without ever aliasing two live due-times. *)
  List.iteri
    (fun i expected ->
      Alcotest.(check (option int))
        (Printf.sprintf "node %d decision time" (i + 1))
        (Some expected)
        (Metrics.decision_round res.Async_engine.metrics (i + 1)))
    [ 3; 4; 7; 8 ]

let test_async_injection_validation () =
  let n = 3 in
  let corrupted = Bitset.of_list n [ 1 ] in
  let adversary =
    {
      (Async_engine.null_adversary ~corrupted) with
      Async_engine.inject =
        (fun ~time ->
          if time = 0 then [ (Envelope.make ~src:0 ~dst:2 Ring.Token, 1) ] else []);
    }
  in
  Alcotest.check_raises "forged async injection"
    (Invalid_argument "Async_engine: adversary may only send from corrupted identities")
    (fun () ->
      ignore (Ring_async.run ~config:{ Ring.n } ~n ~seed:1L ~adversary ~max_time:10 ()))

let test_metrics_merge () =
  let corrupted = Bitset.of_list 3 [ 2 ] in
  let a = Metrics.create ~n:3 ~corrupted in
  let b = Metrics.create ~n:3 ~corrupted in
  Metrics.record_send a ~src:0 ~dst:1 ~bits:10;
  Metrics.set_rounds a 5;
  Metrics.record_send b ~src:1 ~dst:0 ~bits:20;
  Metrics.record_decision b ~id:0 ~round:2;
  Metrics.set_rounds b 7;
  let m = Metrics.merge_phases a b in
  Alcotest.(check int) "bits summed" 30 (Metrics.total_bits_correct m);
  Alcotest.(check int) "rounds summed" 12 (Metrics.rounds m);
  Alcotest.(check (option int)) "decision offset" (Some 7) (Metrics.decision_round m 0)

let test_metrics_imbalance () =
  let corrupted = Bitset.create 2 in
  let m = Metrics.create ~n:2 ~corrupted in
  Metrics.record_send m ~src:0 ~dst:1 ~bits:30;
  (* node 0: sent 30; node 1: received 30 -> both have load 30: balanced. *)
  Alcotest.(check (float 0.01)) "balanced" 1.0 (Metrics.load_imbalance m);
  Metrics.record_send m ~src:0 ~dst:1 ~bits:30;
  Alcotest.(check (float 0.01)) "still balanced by symmetry" 1.0 (Metrics.load_imbalance m)

(* --- Tracing --- *)

let test_trace_sink_transparent () =
  (* Tracing through an Events sink must not change behaviour, only
     observe. *)
  let n = 5 in
  let tally = Events.Tally.create ~n () in
  let events = Events.create () in
  Events.attach events (Events.Tally.consumer tally);
  let run ?events () =
    Ring_sync.run ?events ~config:{ Ring.n } ~n ~seed:1L
      ~adversary:(Sync_engine.null_adversary ~corrupted:(no_corruption n))
      ~mode:`Rushing ~max_rounds:20 ()
  in
  let plain = run () in
  let traced = run ~events () in
  Alcotest.(check int) "same bits"
    (Metrics.total_bits_correct plain.Sync_engine.metrics)
    (Metrics.total_bits_correct traced.Sync_engine.metrics);
  Alcotest.(check bool) "same outputs" true
    (plain.Sync_engine.outputs = traced.Sync_engine.outputs);
  (* n tokens received in total (one per node, incl. the wrap-around). *)
  let csv = String.split_on_char '\n' (String.trim (Events.Tally.deliveries_csv tally)) in
  Alcotest.(check string) "all deliveries traced" (Printf.sprintf "total,%d" n)
    (List.nth csv (List.length csv - 1))

(* --- Events --- *)

let mk_send ~round ~src ~dst ~bits =
  Events.Send { round; src; dst; kind = "Token"; bits; delay = 1 }

let test_sink_attach_order () =
  let sink = Events.create () in
  let seen = ref [] in
  List.iter (fun tag -> Events.attach sink (fun _ -> seen := tag :: !seen)) [ "a"; "b"; "c" ];
  Events.emit sink (Events.Round_start { round = 0 });
  Events.emit sink (Events.Round_start { round = 1 });
  Alcotest.(check (list string)) "each event visits consumers in attach order"
    [ "a"; "b"; "c"; "a"; "b"; "c" ] (List.rev !seen)

let test_jsonl_escaping () =
  Alcotest.(check string) "plain" "abc" (Events.Jsonl.escape "abc");
  Alcotest.(check string) "quote and backslash" {|a\"b\\c|} (Events.Jsonl.escape {|a"b\c|});
  Alcotest.(check string) "newline and tab" {|\n\t|} (Events.Jsonl.escape "\n\t");
  Alcotest.(check string) "control byte" {|\u0001|} (Events.Jsonl.escape "\x01");
  (* gstrings are arbitrary bytes; non-ASCII must never leak through raw. *)
  Alcotest.(check string) "high byte" {|\u00ff|} (Events.Jsonl.escape "\xff");
  let line = Events.Jsonl.to_string (Events.Decide { round = 2; id = 7; value = "g\xffs" }) in
  Alcotest.(check string) "decide object"
    {|{"ev":"decide","round":2,"id":7,"value":"g\u00ffs"}|} line;
  String.iter
    (fun c -> Alcotest.(check bool) "ascii only" true (Char.code c < 0x80))
    line

let test_jsonl_consumer_buffers_lines () =
  let buf = Buffer.create 64 in
  Events.Jsonl.consumer buf (Events.Round_start { round = 0 });
  Events.Jsonl.consumer buf (mk_send ~round:0 ~src:1 ~dst:2 ~bits:16);
  Alcotest.(check string) "two newline-terminated objects"
    ({|{"ev":"round_start","round":0}|} ^ "\n"
    ^ {|{"ev":"send","round":0,"src":1,"dst":2,"kind":"Token","bits":16,"delay":1}|} ^ "\n")
    (Buffer.contents buf)

(* One tally fed one event stream, read through its three views by
   the three tests below. Push is attributed before Poll, so the phase
   rows come in first-attribution order, not sorted; the Fw1 drop
   creates neither a row nor a column. *)
let tally_fixture () =
  let tally =
    Events.Tally.create
      ~classify:(fun ~kind ->
        match kind with "Push" -> "push" | "Poll" | "Pull" -> "poll" | k -> k)
      ~n:4 ()
  in
  let c = Events.Tally.consumer tally in
  let send ~round ~src ~dst ~kind ~bits =
    c (Events.Send { round; src; dst; kind; bits; delay = 1 })
  in
  let deliver ~round ~src ~dst ~kind ~bits = c (Events.Deliver { round; src; dst; kind; bits }) in
  let drop ~round ~kind ~reason = c (Events.Drop { round; src = 0; dst = 3; kind; reason }) in
  c (Events.Round_start { round = 0 });
  send ~round:0 ~src:0 ~dst:1 ~kind:"Push" ~bits:10;
  send ~round:2 ~src:0 ~dst:2 ~kind:"Push" ~bits:10;
  send ~round:2 ~src:1 ~dst:2 ~kind:"Poll" ~bits:30;
  c (Events.Inject { round = 1; src = 3; dst = 0; kind = "Push"; bits = 7; delay = 1 });
  deliver ~round:1 ~src:0 ~dst:1 ~kind:"Push" ~bits:10;
  deliver ~round:3 ~src:1 ~dst:2 ~kind:"Poll" ~bits:30;
  deliver ~round:3 ~src:2 ~dst:1 ~kind:"Pull" ~bits:5;
  drop ~round:2 ~kind:"Fw1" ~reason:"byzantine-dst";
  drop ~round:1 ~kind:"Push" ~reason:"net-loss";
  drop ~round:3 ~kind:"Poll" ~reason:"net-loss";
  c (Events.Decide { round = 3; id = 1; value = "g" });
  tally

(* Deliveries per round by message kind, and drops by reason. *)
let test_trace_records () =
  let tally = tally_fixture () in
  Alcotest.(check string) "deliveries per round, sorted kinds"
    (String.concat "\n"
       [
         "| round | Poll | Pull | Push |";
         "| ----: | ---: | ---: | ---: |";
         "|     0 |    0 |    0 |    0 |";
         "|     1 |    0 |    0 |    1 |";
         "|     2 |    0 |    0 |    0 |";
         "|     3 |    1 |    1 |    0 |";
         "| total |    1 |    1 |    1 |";
         "";
       ])
    (Events.Tally.render_deliveries tally);
  Alcotest.(check (list (pair string int))) "drops by reason"
    [ ("byzantine-dst", 1); ("net-loss", 2) ]
    (Events.Tally.drops tally);
  Alcotest.(check (list (pair string int))) "no drops" []
    (Events.Tally.drops (Events.Tally.create ~n:4 ()))

let test_trace_total_and_csv () =
  Alcotest.(check string) "csv with sorted columns and stable total row"
    "round,Poll,Pull,Push\n0,0,0,0\n1,0,0,1\n2,0,0,0\n3,1,1,0\ntotal,1,1,1\n"
    (Events.Tally.deliveries_csv (tally_fixture ()));
  (* The total row survives an empty trace, so parsers can rely on it. *)
  Alcotest.(check string) "empty trace keeps total row" "round\ntotal\n"
    (Events.Tally.deliveries_csv (Events.Tally.create ~n:4 ()))

let test_phase_acc_accounting () =
  let tally = tally_fixture () in
  let row (r : Events.Tally.row) =
    Events.Tally.
      [ r.first_round; r.last_round; r.msgs_correct; r.msgs_byz; r.bits_correct; r.bits_byz;
        r.max_sent_bits; r.max_recv_bits; r.max_fanout ]
  in
  Alcotest.(check (list (pair string (list int))))
    "phase rows: span, msgs, byz msgs, bits, byz bits, max sent/recv, fanout"
    [ ("push", [ 0; 2; 2; 1; 20; 7; 20; 10; 2 ]); ("poll", [ 2; 3; 1; 0; 30; 0; 30; 30; 1 ]) ]
    (List.map (fun r -> (r.Events.Tally.phase, row r)) (Events.Tally.rows tally));
  Alcotest.(check int) "total bits" 57 (Events.Tally.total_bits tally);
  Alcotest.(check string) "phase timeline"
    (String.concat "\n"
       [
         "| phase | rounds | msgs | byz msgs | bits/node | max fanout | max recv bits |";
         "| ----- | -----: | ---: | -------: | --------: | ---------: | ------------: |";
         "| push  |    0-2 |    2 |        1 |       5.0 |          2 |            10 |";
         "| poll  |    2-3 |    1 |        0 |       7.5 |          1 |            30 |";
         "| total |    0-3 |    3 |        1 |      12.5 |          2 |            30 |";
         "";
       ])
    (Events.Tally.render_phases tally);
  Alcotest.(check int) "no phase rows" 0
    (List.length (Events.Tally.rows (Events.Tally.create ~n:4 ())))

(* Collect every event an engine run emits, in emission order. *)
let collecting_sink () =
  let evs = ref [] in
  let sink = Events.create () in
  Events.attach sink (fun ev -> evs := ev :: !evs);
  (sink, fun () -> List.rev !evs)

let test_engine_emits_events () =
  let n = 4 in
  let sink, events = collecting_sink () in
  let corrupted = Bitset.of_list n [ 3 ] in
  let res =
    Ring_sync.run ~events:sink ~config:{ Ring.n } ~n ~seed:1L
      ~adversary:(Sync_engine.null_adversary ~corrupted)
      ~mode:`Rushing ~max_rounds:20 ()
  in
  ignore res;
  let count p = List.length (List.filter p (events ())) in
  (* Nodes 0, 1, 2 each send the token once; node 3 is corrupted. *)
  Alcotest.(check int) "sends" 3 (count (function Events.Send _ -> true | _ -> false));
  (* The hop 2 -> 3 is dropped at the Byzantine destination. *)
  Alcotest.(check int) "drops" 1 (count (function Events.Drop _ -> true | _ -> false));
  Alcotest.(check int) "delivers" 2
    (count (function Events.Deliver _ -> true | _ -> false));
  (* Nodes 0, 1, 2 decide. *)
  Alcotest.(check int) "decides" 3 (count (function Events.Decide _ -> true | _ -> false));
  Alcotest.(check bool) "round starts" true
    (count (function Events.Round_start _ -> true | _ -> false) >= 2)

let test_async_engine_emits_events () =
  let n = 3 in
  let sink, events = collecting_sink () in
  let adversary =
    {
      (Async_engine.null_adversary ~corrupted:(no_corruption n)) with
      Async_engine.max_delay = 2;
      delay = (fun ~time:_ ~src:_ ~dst:_ _ -> 2);
    }
  in
  let res =
    Ring_async.run ~events:sink ~config:{ Ring.n } ~n ~seed:1L ~adversary ~max_time:50 ()
  in
  Alcotest.(check bool) "all decided" true res.Async_engine.all_decided;
  let sends =
    List.filter_map (function Events.Send { delay; _ } -> Some delay | _ -> None) (events ())
  in
  Alcotest.(check (list int)) "adversary-chosen delays recorded" [ 2; 2; 2 ] sends;
  let delivers =
    List.length (List.filter (function Events.Deliver _ -> true | _ -> false) (events ()))
  in
  (* Node 0 holds the token from init, so the engine stops as soon as
     node 2 decides — the wrap-around hop 2->0 is sent (third delay
     above) but still in flight at termination. *)
  Alcotest.(check int) "delivers" 2 delivers

let test_metrics_imbalance_guards () =
  (* Every node corrupted: no mean load to divide by. *)
  let all_bad = Bitset.of_list 2 [ 0; 1 ] in
  let m = Metrics.create ~n:2 ~corrupted:all_bad in
  Metrics.record_send m ~src:0 ~dst:1 ~bits:100;
  Alcotest.(check (float 0.0)) "empty correct set" 0.0 (Metrics.load_imbalance m);
  (* Correct nodes exist but never touch a message. *)
  let quiet = Metrics.create ~n:3 ~corrupted:(Bitset.of_list 3 [ 2 ]) in
  Alcotest.(check (float 0.0)) "no correct traffic" 0.0 (Metrics.load_imbalance quiet);
  Alcotest.(check bool) "never NaN" false (Float.is_nan (Metrics.load_imbalance quiet))

let suites =
  [
    ( "sim.sync",
      [
        Alcotest.test_case "ring timing" `Quick test_sync_ring_timing;
        Alcotest.test_case "metrics accounting" `Quick test_sync_metrics_accounting;
        Alcotest.test_case "byzantine breaks ring + quiescence" `Quick
          test_sync_byzantine_breaks_ring;
        Alcotest.test_case "adversary sender validation" `Quick test_sync_adversary_validation;
        Alcotest.test_case "rushing vs non-rushing observation" `Quick
          test_rushing_vs_non_rushing_observation;
      ] );
    ( "sim.async",
      [
        Alcotest.test_case "delayed delivery" `Quick test_async_delays;
        Alcotest.test_case "delay clamping" `Quick test_async_delay_clamping;
        Alcotest.test_case "calendar-queue wrap-around" `Quick test_async_calendar_wraparound;
        Alcotest.test_case "calendar-queue mixed delays" `Quick test_async_calendar_mixed_delays;
        Alcotest.test_case "injection validation" `Quick test_async_injection_validation;
      ] );
    ( "sim.trace",
      [
        Alcotest.test_case "recording" `Quick test_trace_records;
        Alcotest.test_case "sink transparency" `Quick test_trace_sink_transparent;
        Alcotest.test_case "totals and csv" `Quick test_trace_total_and_csv;
      ] );
    ( "sim.events",
      [
        Alcotest.test_case "sink attach order" `Quick test_sink_attach_order;
        Alcotest.test_case "jsonl escaping" `Quick test_jsonl_escaping;
        Alcotest.test_case "jsonl consumer" `Quick test_jsonl_consumer_buffers_lines;
        Alcotest.test_case "phase accumulator accounting" `Quick test_phase_acc_accounting;
        Alcotest.test_case "sync engine emission" `Quick test_engine_emits_events;
        Alcotest.test_case "async engine emission" `Quick test_async_engine_emits_events;
      ] );
    ( "sim.metrics",
      [
        Alcotest.test_case "merge phases" `Quick test_metrics_merge;
        Alcotest.test_case "load imbalance" `Quick test_metrics_imbalance;
        Alcotest.test_case "load imbalance degenerate cases" `Quick
          test_metrics_imbalance_guards;
      ] );
  ]
