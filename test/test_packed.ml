(* Packed message plane (Msg.Packed + Intern).

   Evidence that a packed word carries every field a handler reads:

   - layout goldens: hard-coded packed words pin the field order
     (tag:3 | sid | rid | x | w, LSB first) on a fixed
     tag:3|sid:13|rid:20|x:13|w:13 layout, so an accidental field
     reshuffle cannot hide behind self-consistent accessors;
   - qcheck properties: under each layout Layout.fit gives at the
     populations n = 8191, 8192, 8193 and 65536, every constructor's
     word reads each of its fields back through the accessors, with
     the fields at their extremes, and the fields its tag does not
     carry read 0;
   - engine equivalence: running AER through the allocation-free
     [receive_into] fast path and through the list-returning
     [on_receive] fallback produces bit-identical metrics, outputs and
     JSONL traces on small adversarial scenarios — the two delivery
     paths of the engines are the same protocol. *)

module Attacks = Fba_adversary.Aer_attacks
module Runner = Fba_harness.Runner
open Fba_core
module Packed = Msg.Packed

(* --- Layout goldens --- *)

let golden = Msg.Layout.make ~sid_bits:13 ~rid_bits:20 ~id_bits:13

let intern_for (lt : Msg.Layout.t) =
  Intern.create ~max_strings:lt.Msg.Layout.max_strings ~max_labels:lt.Msg.Layout.max_labels

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_layout_goldens () =
  let it = intern_for golden in
  Alcotest.(check int) "first string id" 0 (Intern.intern it "alpha");
  Alcotest.(check int) "second string id" 1 (Intern.intern it "beta");
  Alcotest.(check int) "interning is idempotent" 0 (Intern.intern it "alpha");
  Alcotest.(check int) "first label id" 0 (Intern.intern_label it 0x5EEDL);
  Alcotest.(check int) "second label id" 1 (Intern.intern_label it 42L);
  let wd = Words.make golden it in
  Alcotest.(check int) "Push alpha" 1 (Words.push wd "alpha");
  Alcotest.(check int) "Answer alpha" 6 (Words.answer wd "alpha");
  Alcotest.(check int) "Poll beta/0x5EED" 10 (Words.poll wd "beta" ~r:0x5EEDL);
  Alcotest.(check int) "Pull beta/0x5EED" 11 (Words.pull wd "beta" ~r:0x5EEDL);
  Alcotest.(check int) "Poll alpha/42 (rid 1)" 65538 (Words.poll wd "alpha" ~r:42L);
  Alcotest.(check int) "Fw1 x=5 w=7" 3940993271332868 (Words.fw1 wd ~x:5 "alpha" ~r:0x5EEDL ~w:7);
  Alcotest.(check int) "Fw2 x=5" 343597383685 (Words.fw2 wd ~x:5 "alpha" ~r:0x5EEDL)

(* The label table at the int64 extremes and across growth: ids are
   dense in first-seen order, map back to their labels and are stable
   on re-interning, and the layout's cap is enforced. *)
let test_label_table () =
  let extremes = [ 0L; Int64.min_int; Int64.max_int; -1L ] in
  let others = List.init 1000 (fun i -> Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L) in
  let labels = Array.of_list (extremes @ others) in
  let k = Array.length labels in
  let it = Intern.create ~max_strings:1 ~max_labels:k in
  Array.iteri
    (fun i r ->
      let id = Intern.intern_label it r in
      if id <> i then Alcotest.failf "label %Ld got id %d, not %d" r id i)
    labels;
  Alcotest.(check int) "label_count" k (Intern.label_count it);
  Array.iteri
    (fun i r ->
      if not (Int64.equal (Intern.label it i) r) then Alcotest.failf "label %d is not %Ld" i r;
      if Intern.intern_label it r <> i then Alcotest.failf "re-interning %Ld moved its id" r)
    labels;
  Alcotest.(check int) "label_count after re-interning" k (Intern.label_count it);
  Alcotest.(check bool) "cap enforced" true
    (match Intern.intern_label it 7L with _ -> false | exception Failure _ -> true)

let test_field_boundaries () =
  let max_sid = golden.Msg.Layout.max_strings - 1 in
  let max_rid = golden.Msg.Layout.max_labels - 1 in
  let p = Packed.fw1 golden ~sid:max_sid ~rid:max_rid ~x:8191 ~w:8191 in
  Alcotest.(check int) "max word uses exactly 62 bits" 4611686018427387900 p;
  Alcotest.(check int) "tag at boundary" Packed.tag_fw1 (Packed.tag p);
  Alcotest.(check int) "sid at boundary" max_sid (Packed.sid golden p);
  Alcotest.(check int) "rid at boundary" max_rid (Packed.rid golden p);
  Alcotest.(check int) "x at boundary" 8191 (Packed.x golden p);
  Alcotest.(check int) "w at boundary" 8191 (Packed.w golden p);
  (* Overflow errors must name the overflowing field. *)
  let rejects name field f =
    match f () with
    | (_ : int) -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument msg ->
      if not (contains_sub msg (field ^ "=")) then
        Alcotest.failf "%s: error %S does not name field %s" name msg field
  in
  rejects "sid overflow" "sid" (fun () -> Packed.push golden ~sid:(max_sid + 1));
  rejects "rid overflow" "rid" (fun () -> Packed.poll golden ~sid:0 ~rid:(max_rid + 1));
  rejects "x overflow" "x" (fun () -> Packed.fw2 golden ~sid:0 ~rid:0 ~x:8192);
  rejects "w overflow" "w" (fun () -> Packed.fw1 golden ~sid:0 ~rid:0 ~x:0 ~w:8192);
  rejects "negative sid" "sid" (fun () -> Packed.push golden ~sid:(-1))

(* --- qcheck codec properties --- *)

(* The layouts Layout.fit gives around n = 8192, where node ids go from
   13 to 14 bits, and at n = 65536, each for two string budgets: 64
   strings ("narrow", an 8-bit sid field) and 300 ("wide", 10 bits). *)
let boundary_layouts =
  List.concat_map
    (fun n ->
      List.map
        (fun (budget, strings) ->
          (Printf.sprintf "n=%d/%s" n budget, Msg.Layout.fit ~n ~strings))
        [ ("narrow", 64); ("wide", 300) ])
    [ 8191; 8192; 8193; 65536 ]

(* A field value below [cap], drawn at 0, at cap - 1 or anywhere. *)
let gen_field cap = QCheck2.Gen.(oneof [ oneofl [ 0; cap - 1 ]; int_range 0 (cap - 1) ])

(* Each constructor's word, with the fields it carries (0 for the rest):
   the contract the handlers rely on. *)
let reads_back (lt : Msg.Layout.t) (sid, rid, x, w) =
  List.for_all
    (fun (tag, p, (sid, rid, x, w)) ->
      Packed.tag p = tag
      && Packed.sid lt p = sid
      && Packed.rid lt p = rid
      && Packed.x lt p = x
      && Packed.w lt p = w
      && p lsr Msg.Layout.total_bits lt = 0)
    [
      (Packed.tag_push, Packed.push lt ~sid, (sid, 0, 0, 0));
      (Packed.tag_poll, Packed.poll lt ~sid ~rid, (sid, rid, 0, 0));
      (Packed.tag_pull, Packed.pull lt ~sid ~rid, (sid, rid, 0, 0));
      (Packed.tag_fw1, Packed.fw1 lt ~sid ~rid ~x ~w, (sid, rid, x, w));
      (Packed.tag_fw2, Packed.fw2 lt ~sid ~rid ~x, (sid, rid, x, 0));
      (Packed.tag_answer, Packed.answer lt ~sid, (sid, 0, 0, 0));
    ]

let codec_props =
  List.map
    (fun (name, (lt : Msg.Layout.t)) ->
      let gen =
        QCheck2.Gen.(
          tup4 (gen_field lt.max_strings) (gen_field lt.max_labels) (gen_field lt.max_n)
            (gen_field lt.max_n))
      in
      QCheck_alcotest.to_alcotest
        (QCheck2.Test.make ~count:200
           ~name:(name ^ ": codec round-trips every field through the accessors")
           ~print:(fun (s, r, x, w) -> Printf.sprintf "sid=%d rid=%d x=%d w=%d" s r x w)
           gen (reads_back lt)))
    boundary_layouts

(* --- Fast-path vs fallback engine equivalence --- *)

(* Same protocol, [receive_into] withheld: the engines must take the
   list-returning [on_receive] shim instead. *)
module Aer_fallback = struct
  include Aer

  let receive_into = None
end

module E_fast = Fba_sim.Sync_engine.Make (Aer)
module E_slow = Fba_sim.Sync_engine.Make (Aer_fallback)
module A_fast = Fba_sim.Async_engine.Make (Aer)
module A_slow = Fba_sim.Async_engine.Make (Aer_fallback)

let fingerprint = Fba_harness.Service.fingerprint

let jsonl_sink () =
  let buf = Buffer.create 4096 in
  let sink = Fba_sim.Events.create () in
  Fba_sim.Events.attach sink (Fba_sim.Events.Jsonl.consumer buf);
  (sink, buf)

let arb_run =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%Ld" n seed)
    QCheck.Gen.(pair (int_range 24 64) (map Int64.of_int (int_range 1 1000)))

let prop_sync_fallback_identical =
  QCheck.Test.make ~name:"sync: receive_into and on_receive runs are trace-identical" ~count:8
    arb_run (fun (n, seed) ->
      let run (type a) (run_engine : events:Fba_sim.Events.sink -> Aer.config -> a) =
        let sc = Runner.scenario_of_setup Runner.default_setup ~n ~seed in
        let events, buf = jsonl_sink () in
        (run_engine ~events (Aer.config_of_scenario sc), buf)
      in
      let fast, fast_buf =
        run (fun ~events cfg ->
            let sc = Aer.config_scenario cfg in
            E_fast.run ~quiet_limit:(Params.quiet_limit sc.Scenario.params) ~events ~config:cfg
              ~n ~seed ~adversary:(Attacks.cornering sc) ~mode:`Rushing ~max_rounds:300 ())
      in
      let slow, slow_buf =
        run (fun ~events cfg ->
            let sc = Aer.config_scenario cfg in
            E_slow.run ~quiet_limit:(Params.quiet_limit sc.Scenario.params) ~events ~config:cfg
              ~n ~seed ~adversary:(Attacks.cornering sc) ~mode:`Rushing ~max_rounds:300 ())
      in
      Int64.equal
        (fingerprint fast.Fba_sim.Sync_engine.metrics)
        (fingerprint slow.Fba_sim.Sync_engine.metrics)
      && fast.Fba_sim.Sync_engine.outputs = slow.Fba_sim.Sync_engine.outputs
      && Buffer.contents fast_buf = Buffer.contents slow_buf)

let prop_async_fallback_identical =
  QCheck.Test.make ~name:"async: receive_into and on_receive runs are trace-identical" ~count:5
    arb_run (fun (n, seed) ->
      let run_with runner =
        let sc = Runner.scenario_of_setup Runner.default_setup ~n ~seed in
        let events, buf = jsonl_sink () in
        (runner ~events ~config:(Aer.config_of_scenario sc) ~adversary:(Attacks.async_cornering sc),
         buf)
      in
      let fast, fast_buf =
        run_with (fun ~events ~config ~adversary ->
            A_fast.run ~events ~config ~n ~seed ~adversary ~max_time:4000 ())
      in
      let slow, slow_buf =
        run_with (fun ~events ~config ~adversary ->
            A_slow.run ~events ~config ~n ~seed ~adversary ~max_time:4000 ())
      in
      Int64.equal
        (fingerprint fast.Fba_sim.Async_engine.metrics)
        (fingerprint slow.Fba_sim.Async_engine.metrics)
      && fast.Fba_sim.Async_engine.outputs = slow.Fba_sim.Async_engine.outputs
      && Buffer.contents fast_buf = Buffer.contents slow_buf)

let suites =
  [
    ( "packed.codec",
      Alcotest.test_case "layout goldens" `Quick test_layout_goldens
      :: Alcotest.test_case "label table" `Quick test_label_table
      :: Alcotest.test_case "field boundaries" `Quick test_field_boundaries
      :: codec_props );
    ( "packed.engine",
      List.map QCheck_alcotest.to_alcotest
        [ prop_sync_fallback_identical; prop_async_fallback_identical ] );
  ]
