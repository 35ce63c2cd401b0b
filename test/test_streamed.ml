(* The delivery plane (Batch.Arena / Batch.Chain).

   Arena/chain unit suite: segment recycling through the free list,
   O(1) chain transfer, drain-time recycling, the no-stale-reads
   guarantee (a recycled segment never leaks a retired chain's
   messages back into a new owner), and the fused (src, dst) word's
   [0, 2^31) guard at its boundary. Whole engine runs on this plane are
   pinned by the determinism and net goldens, recorded when the
   double-buffered lanes still ran beside it and both gave the same
   fingerprints, outputs and event traces.

   The cornering tests pin two deterministic counters of whole cornering
   runs (rushing and non-rushing at n=128, async at n=256): peak mailbox
   words, exactly, and the words a run allocates, within 1% of the count
   recorded here.

   The layout tests pin the field widths Layout.fit derives from n and
   the packed plane's structural ceiling: past n = 2^18 the 63-bit
   immediate cannot host any layout, and the failure is a named
   [Immediate_exhausted] (pointing at the planned 2-int lane), distinct
   from the fewer-strings advice for feasible populations. *)

module Batch = Fba_sim.Batch
module Runner = Fba_harness.Runner
module Aer_attacks = Fba_adversary.Aer_attacks
open Fba_core

(* --- Arena / Chain unit suite --- *)

let chain_list c =
  let out = ref [] in
  Batch.Chain.iter (fun ~src ~dst m -> out := (src, dst, m) :: !out) c;
  List.rev !out

let push_range c ~from ~count =
  for i = from to from + count - 1 do
    Batch.Chain.push c ~src:i ~dst:(i + 1) (i * 10)
  done

let expect_range ~from ~count = List.init count (fun k -> (from + k, from + k + 1, (from + k) * 10))

let test_chain_order () =
  let a = Batch.Arena.create ~seg_cap:4 () in
  let c = Batch.Chain.create a in
  Alcotest.(check bool) "fresh chain is empty" true (Batch.Chain.is_empty c);
  push_range c ~from:0 ~count:11;
  Alcotest.(check int) "length spans segments" 11 (Batch.Chain.length c);
  Alcotest.(check (list (triple int int int))) "iter in push order" (expect_range ~from:0 ~count:11)
    (chain_list c);
  let envs = Batch.Chain.to_envelopes c in
  Alcotest.(check int) "to_envelopes materializes all" 11 (List.length envs);
  let e = List.nth envs 5 in
  Alcotest.(check int) "envelope src" 5 e.Fba_sim.Envelope.src;
  Alcotest.(check int) "envelope dst" 6 e.Fba_sim.Envelope.dst;
  Alcotest.(check int) "envelope msg" 50 e.Fba_sim.Envelope.msg;
  Alcotest.(check int) "iter is non-destructive" 11 (Batch.Chain.length c)

let test_free_list_recycling () =
  let a = Batch.Arena.create ~seg_cap:4 () in
  let c = Batch.Chain.create a in
  push_range c ~from:0 ~count:12 (* exactly 3 segments *);
  let peak0 = Batch.Arena.peak_words a in
  Alcotest.(check int) "3 segments live, none free" 0 (Batch.Arena.free_segments a);
  Alcotest.(check int) "peak counts 3 two-lane segments" (3 * 2 * 4) peak0;
  Batch.Chain.clear c;
  Alcotest.(check int) "clear parks all segments" 3 (Batch.Arena.free_segments a);
  Alcotest.(check int) "clear frees nothing (peak is retained)" peak0 (Batch.Arena.peak_words a);
  (* A refill of the same size must be served entirely from the free
     list: the arena creates no segment, so peak_words cannot move. *)
  let c2 = Batch.Chain.create a in
  push_range c2 ~from:100 ~count:12;
  Alcotest.(check int) "refill drains the free list" 0 (Batch.Arena.free_segments a);
  Alcotest.(check int) "refill reuses, never grows" peak0 (Batch.Arena.peak_words a)

let test_no_stale_reads () =
  let a = Batch.Arena.create ~seg_cap:4 () in
  let c1 = Batch.Chain.create a in
  push_range c1 ~from:0 ~count:10;
  Batch.Chain.clear c1;
  Alcotest.(check (list (triple int int int))) "retired chain reads empty" [] (chain_list c1);
  Alcotest.(check int) "retired chain has length 0" 0 (Batch.Chain.length c1);
  (* The new owner of the recycled segments sees only its own pushes —
     a partial refill must not resurrect the tail of the old lane. *)
  let c2 = Batch.Chain.create a in
  push_range c2 ~from:50 ~count:5;
  Alcotest.(check (list (triple int int int))) "recycled segments carry only the new owner's data"
    (expect_range ~from:50 ~count:5) (chain_list c2)

let test_transfer () =
  let a = Batch.Arena.create ~seg_cap:4 () in
  let src = Batch.Chain.create a in
  let into = Batch.Chain.create a in
  push_range into ~from:0 ~count:3;
  push_range src ~from:3 ~count:9;
  Batch.Chain.transfer src ~into;
  Alcotest.(check int) "transfer empties the source" 0 (Batch.Chain.length src);
  Alcotest.(check (list (triple int int int))) "transfer appends in order"
    (expect_range ~from:0 ~count:12) (chain_list into);
  (* Self-transfer and empty-source transfer are no-ops. *)
  Batch.Chain.transfer into ~into;
  Batch.Chain.transfer src ~into;
  Alcotest.(check int) "self/empty transfer is a no-op" 12 (Batch.Chain.length into)

let test_drain_recycles () =
  let a = Batch.Arena.create ~seg_cap:4 () in
  let c = Batch.Chain.create a in
  let next = Batch.Chain.create a in
  push_range c ~from:0 ~count:12;
  let peak0 = Batch.Arena.peak_words a in
  (* Deliver-as-you-go: every delivery from [c] triggers a push into
     [next] (the engine's send-refills-sends pattern). Segments drained
     from [c] return to the free list mid-drain and serve [next], so
     the arena grows by at most one segment of slack. *)
  let seen = ref [] in
  Batch.Chain.drain c ~f:(fun ~src ~dst m ->
      seen := (src, dst, m) :: !seen;
      Batch.Chain.push next ~src ~dst (m + 1));
  Alcotest.(check (list (triple int int int))) "drain visits in push order"
    (expect_range ~from:0 ~count:12) (List.rev !seen);
  Alcotest.(check int) "drained chain is empty" 0 (Batch.Chain.length c);
  Alcotest.(check int) "refilled chain holds every delivery" 12 (Batch.Chain.length next);
  Alcotest.(check bool)
    (Printf.sprintf "drain recycles in flight: peak %d <= %d + one segment"
       (Batch.Arena.peak_words a) peak0)
    true
    (Batch.Arena.peak_words a <= peak0 + (2 * 4))

let test_peak_gauge () =
  Batch.Peak.reset ();
  Alcotest.(check int) "reset zeroes the gauge" 0 (Batch.Peak.get ());
  Batch.Peak.note 300;
  Batch.Peak.note 120;
  Alcotest.(check int) "note keeps the max" 300 (Batch.Peak.get ());
  Batch.Peak.note 450;
  Alcotest.(check int) "note raises monotonically" 450 (Batch.Peak.get ());
  Batch.Peak.reset ()

(* The (src, dst) pair shares one fused word, so ids must fit in 31
   bits: the largest one round-trips, and the first id past it (or a
   negative one) is refused instead of corrupting its neighbour. *)
let test_fused_lane_guard () =
  let a = Batch.Arena.create ~seg_cap:4 () in
  let c = Batch.Chain.create a in
  let top = (1 lsl 31) - 1 in
  Batch.Chain.push c ~src:top ~dst:top 1;
  Batch.Chain.push c ~src:0 ~dst:top 2;
  Batch.Chain.push c ~src:top ~dst:0 3;
  Alcotest.(check (list (triple int int int))) "ids up to 2^31-1 round-trip"
    [ (top, top, 1); (0, top, 2); (top, 0, 3) ]
    (chain_list c);
  let rejects name ~src ~dst =
    match Batch.Chain.push c ~src ~dst 0 with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  rejects "src = 2^31" ~src:(1 lsl 31) ~dst:0;
  rejects "dst = 2^31" ~src:0 ~dst:(1 lsl 31);
  rejects "src = -1" ~src:(-1) ~dst:0;
  rejects "dst = -1" ~src:0 ~dst:(-1);
  Alcotest.(check int) "refused pushes store nothing" 3 (Batch.Chain.length c)

(* --- Cornering: the delivery plane's deterministic counters --- *)

let cornering_run ?(mode = `Rushing) ~n () =
  let sc = Runner.scenario_of_setup Runner.default_setup ~n ~seed:1L in
  Runner.aer_sync
    ~config:{ Runner.default_config with mode }
    ~adversary:(fun sc -> Aer_attacks.cornering sc)
    sc

let cornering_n128 () = cornering_run ~n:128 ()

let non_rushing_n128 () = cornering_run ~mode:`Non_rushing ~n:128 ()

let async_cornering_n256 () =
  let sc = Runner.scenario_of_setup Runner.default_setup ~n:256 ~seed:1L in
  Runner.aer_async ~adversary:(fun sc -> Aer_attacks.async_cornering sc) sc

(* Segment accounting depends only on the run's sends and the segment
   size, not on the compiler or the build profile, so the peak is exact. *)
let check_peak_words run recorded () =
  let r = run () in
  Alcotest.(check int) "peak mailbox words" recorded
    (Fba_sim.Metrics.peak_mailbox_words r.Runner.metrics)

let test_cornering_peak_words = check_peak_words cornering_n128 274_176

(* A non-rushing run keeps the correct chain it delivers as the
   adversary's window; copying that chain at every commit instead
   peaked at 547,840 words here. *)
let test_non_rushing_peak_words = check_peak_words non_rushing_n128 313_600

(* Words this domain has allocated. [Gc.minor_words] reads the minor
   heap's allocation pointer, so it is exact at any point, whereas the
   minor count of [Gc.counters] (and so [Gc.allocated_bytes]) only
   advances at minor collections. Major minus promoted words is what
   was allocated directly in the major heap. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Words one run, scenario included, allocates on the default
   (release) build; [--profile dev] reads a little more (0.5% for
   cornering n=128). Each budget allows 1%. *)
let cornering_n128_words = 1_028_352.

let non_rushing_n128_words = 1_019_392.

let async_n256_words = 2_997_183.

let check_alloc_budget what run recorded () =
  let before = allocated_words () in
  ignore (run ());
  let words = allocated_words () -. before in
  let budget = 1.01 *. recorded in
  if words > budget then
    Alcotest.failf "%s allocated %.0f words, %+.2f%% over %.0f (budget %.0f)" what words
      ((words /. recorded -. 1.) *. 100.)
      recorded budget

let test_cornering_alloc_budget =
  check_alloc_budget "cornering n=128" cornering_n128 cornering_n128_words

let test_non_rushing_alloc_budget =
  check_alloc_budget "non-rushing cornering n=128" non_rushing_n128 non_rushing_n128_words

let test_async_alloc_budget =
  check_alloc_budget "async cornering n=256" async_cornering_n256 async_n256_words

(* --- Layout.fit widths and structural ceiling --- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_fit_widths () =
  let open Msg.Layout in
  List.iter
    (fun (n, want) ->
      let lt = fit ~n ~strings:64 in
      Alcotest.(check int) (Printf.sprintf "n=%d id_bits" n) want lt.id_bits;
      Alcotest.(check bool) (Printf.sprintf "n=%d fits an immediate" n) true
        (total_bits lt <= 63);
      Alcotest.(check bool) (Printf.sprintf "n=%d rid outgrows id" n) true
        (lt.rid_bits >= lt.id_bits + 1))
    [ (2, 1); (128, 7); (8192, 13); (8193, 14); (65536, 16) ];
  (* A feasible n with too many strings names the starved field. *)
  match fit ~n:262144 ~strings:5000 with
  | (_ : t) -> Alcotest.fail "n=262144 with 5000 strings: expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "error names rid" true (contains msg "rid")

let test_immediate_exhausted () =
  let open Msg.Layout in
  (* n = 2^18 is the last feasible population: 18-bit ids still leave a
     19-bit label field beside the minimal string budget. *)
  let lt = fit ~n:262144 ~strings:8 in
  Alcotest.(check bool) "n=2^18 still fits" true (total_bits lt <= 63);
  Alcotest.(check bool) "n=2^18 addresses the population" true (lt.max_n >= 262144);
  Alcotest.(check int) "n=2^18 id_bits" 18 lt.id_bits;
  (match fit ~n:262145 ~strings:8 with
  | (_ : t) -> Alcotest.fail "n=2^18+1: expected Immediate_exhausted"
  | exception Immediate_exhausted { n; id_bits } ->
    Alcotest.(check int) "exception carries n" 262145 n;
    Alcotest.(check int) "exception carries id_bits" 19 id_bits);
  (* The structural ceiling outranks the fewer-strings advice: a huge
     string budget at an infeasible n must not be blamed on strings. *)
  (match fit ~n:524288 ~strings:5000 with
  | (_ : t) -> Alcotest.fail "n=2^19: expected Immediate_exhausted"
  | exception Immediate_exhausted _ -> ());
  let msg =
    try
      ignore (fit ~n:262145 ~strings:8);
      ""
    with e -> Printexc.to_string e
  in
  Alcotest.(check bool) "printer names the ceiling" true (contains msg "262144");
  Alcotest.(check bool) "printer points at the 2-int lane" true (contains msg "2-int")

let suites =
  [
    ( "streamed.arena",
      [
        Alcotest.test_case "chain push order across segments" `Quick test_chain_order;
        Alcotest.test_case "free-list recycling" `Quick test_free_list_recycling;
        Alcotest.test_case "no stale reads after retirement" `Quick test_no_stale_reads;
        Alcotest.test_case "O(1) transfer" `Quick test_transfer;
        Alcotest.test_case "drain recycles in flight" `Quick test_drain_recycles;
        Alcotest.test_case "process-wide peak gauge" `Quick test_peak_gauge;
        Alcotest.test_case "fused-lane guard at 2^31" `Quick test_fused_lane_guard;
      ] );
    ( "streamed.cornering",
      [
        Alcotest.test_case "n=128 peak mailbox words" `Quick test_cornering_peak_words;
        Alcotest.test_case "n=128 allocation budget" `Quick test_cornering_alloc_budget;
        Alcotest.test_case "non-rushing n=128 peak mailbox words" `Quick
          test_non_rushing_peak_words;
        Alcotest.test_case "non-rushing n=128 allocation budget" `Quick
          test_non_rushing_alloc_budget;
        Alcotest.test_case "async n=256 allocation budget" `Quick test_async_alloc_budget;
      ] );
    ( "streamed.layout",
      [
        Alcotest.test_case "Layout.fit field widths" `Quick test_fit_widths;
        Alcotest.test_case "immediate ceiling past n=2^18" `Quick test_immediate_exhausted;
      ] );
  ]
