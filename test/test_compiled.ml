(* Scenario compiler (Fba_core.Compiled + Int_table + the interned-id
   cache extensions).

   The compiled plane must be invisible: lowering the scenario into
   flat dispatch tables may change how lookups are answered, never what
   they answer. Evidence, bottom up:

   - Int_table vs a Hashtbl model: randomized op sequences agree on
     every returned value (the table underlies all compiled-path
     per-node sets and counters);
   - membership oracles: [Cache.mem_sid]/[mem_rid] agree with a plain
     scan of the cached quorum, and [pos_sid]/[pos_rid] agree with them
     and index the quorum correctly;
   - CSR fan-out vs Push_plan: the compiled push edges are exactly
     [Push_plan.targets] for every correct node, and the rows the
     build donates to the push cache are exactly the sampler's;
   - wire accounting: [Compiled.bits] and [Aer.msg_bits] equal the wire
     rule written out by hand for every tag, including for strings
     interned after compilation.

   Whole runs are pinned by the determinism and net goldens
   (test_determinism, test_net), recorded when a tag-comparison
   dispatch still ran beside the compiled one and both gave the same
   fingerprints, outputs and event traces. *)

module Runner = Fba_harness.Runner
module Cache = Fba_samplers.Cache
module Sampler = Fba_samplers.Sampler
module Push_plan = Fba_samplers.Push_plan
open Fba_core
open Fba_stdx

(* --- Int_table vs Hashtbl model --- *)

type iop = Set of int * int | Add of int | Incr of int | Mem of int

let gen_iop =
  let open QCheck2.Gen in
  (* Keys from a small range so collisions, growth and re-touching are
     all exercised. *)
  let k = int_range 0 200 in
  oneof
    [
      map2 (fun k v -> Set (k, v)) k (int_range 0 1000);
      map (fun k -> Add k) k;
      map (fun k -> Incr k) k;
      map (fun k -> Mem k) k;
    ]

let prop_int_table =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"Int_table agrees with a Hashtbl model"
       QCheck2.Gen.(list_size (int_range 0 400) gen_iop)
       (fun ops ->
         let t = Int_table.create ~capacity:2 () in
         let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
         let get_m k = match Hashtbl.find_opt model k with Some v -> v | None -> min_int in
         List.for_all
           (fun op ->
             let ok =
               match op with
               | Set (k, v) ->
                 Int_table.set t k v;
                 Hashtbl.replace model k v;
                 true
               | Add k ->
                 let fresh = Int_table.add t k in
                 let fresh' = not (Hashtbl.mem model k) in
                 if fresh' then Hashtbl.replace model k 0;
                 fresh = fresh'
               | Incr k ->
                 let v = Int_table.incr t k in
                 let v' = (match Hashtbl.find_opt model k with Some v -> v | None -> 0) + 1 in
                 Hashtbl.replace model k v';
                 v = v'
               | Mem k -> Int_table.mem t k = Hashtbl.mem model k
             in
             ok
             && Int_table.length t = Hashtbl.length model
             &&
             let (Set (k, _) | Add k | Incr k | Mem k) = op in
             Int_table.get_or t k ~default:min_int = get_m k)
           ops))

let test_int_table_negative () =
  let t = Int_table.create () in
  let rejects name f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  rejects "set" (fun () -> Int_table.set t (-1) 0);
  rejects "add" (fun () -> ignore (Int_table.add t (-3)));
  rejects "incr" (fun () -> ignore (Int_table.incr t (-1)))

(* --- Shared scenario fixtures --- *)

let scenario ~n ~seed = Runner.scenario_of_setup Runner.default_setup ~n ~seed

(* Build against a local push cache (what Aer.compile does with the
   config's qi), keeping the donated rows inspectable. *)
let compiled_of sc =
  let qi = Cache.create (Params.sampler_i sc.Scenario.params) in
  let cp = Compiled.build ~scenario:sc ~qi in
  (qi, cp)

(* --- Position oracles --- *)

let test_pos_oracles () =
  let sc = scenario ~n:64 ~seed:11L in
  let params = sc.Scenario.params in
  let intern = sc.Scenario.intern in
  let qh = Cache.create (Params.sampler_h params) in
  let qj = Cache.create (Params.sampler_j params) in
  let n = params.Params.n in
  for x = 0 to n - 1 do
    let s = sc.Scenario.initial.(x) in
    let sid = Intern.find intern s in
    Alcotest.(check bool) "initials are interned" true (sid >= 0);
    let q = Cache.quorum_sid qh ~sid ~s ~x in
    let last = Array.length q - 1 in
    Alcotest.(check int) "pos_sid finds the last slot" last
      (Cache.pos_sid qh ~sid ~s ~x ~y:q.(last));
    for y = 0 to n - 1 do
      let pos = Cache.pos_sid qh ~sid ~s ~x ~y in
      let mem = Cache.mem_sid qh ~sid ~s ~x ~y in
      Alcotest.(check bool) "mem_sid = a plain scan of the quorum"
        (Array.exists (Int.equal y) q) mem;
      Alcotest.(check bool) "pos_sid >= 0 iff mem_sid" mem (pos >= 0);
      if pos >= 0 then Alcotest.(check int) "pos_sid indexes the quorum" y q.(pos)
    done
  done;
  let r = 0xFACEL in
  let rid = Intern.intern_label intern r in
  let x = 3 in
  let q = Cache.quorum_rid qj ~x ~rid ~r in
  let last = Array.length q - 1 in
  Alcotest.(check int) "pos_rid finds the last slot" last (Cache.pos_rid qj ~x ~rid ~r ~y:q.(last));
  let members = ref 0 in
  for y = 0 to n - 1 do
    let pos = Cache.pos_rid qj ~x ~rid ~r ~y in
    let mem = Cache.mem_rid qj ~x ~rid ~r ~y in
    Alcotest.(check bool) "mem_rid = a plain scan of the quorum" (Array.exists (Int.equal y) q) mem;
    if mem then incr members;
    Alcotest.(check bool) "pos_rid >= 0 iff mem_rid" mem (pos >= 0);
    if pos >= 0 then Alcotest.(check int) "pos_rid indexes the quorum" y q.(pos)
  done;
  (* Both members and non-members were probed. *)
  Alcotest.(check bool) "J quorum is a proper subset" true (!members = Array.length q && !members < n);
  (* The same label reused by other pollers (an adversarial echo) takes
     the cross-poller fallback table; its keys must keep x apart. *)
  let sj = Params.sampler_j params in
  List.iter
    (fun x ->
      let want = Sampler.quorum_xr sj ~x ~r in
      Alcotest.(check (array int))
        (Printf.sprintf "fallback quorum_rid x=%d" x)
        want (Cache.quorum_rid qj ~x ~rid ~r);
      for y = 0 to n - 1 do
        let mem = Cache.mem_rid qj ~x ~rid ~r ~y in
        let pos = Cache.pos_rid qj ~x ~rid ~r ~y in
        Alcotest.(check bool) "fallback mem_rid = a plain scan" (Array.exists (Int.equal y) want) mem;
        Alcotest.(check bool) "fallback pos_rid >= 0 iff mem_rid" mem (pos >= 0);
        if pos >= 0 then Alcotest.(check int) "fallback pos_rid indexes the quorum" y want.(pos)
      done)
    [ 5; 7 ]

(* --- CSR fan-out vs the Push_plan oracle --- *)

let test_csr_matches_push_plan () =
  List.iter
    (fun (n, seed) ->
      let sc = scenario ~n ~seed in
      let _qi, cp = compiled_of sc in
      (* Independent oracle: a fresh plan over a fresh sampler-equal
         cache, no interner routing. *)
      let plan = Push_plan.create ~sampler:(Params.sampler_i sc.Scenario.params) () in
      Alcotest.(check int) "compiled n" n (Compiled.n cp);
      for y = 0 to n - 1 do
        if Scenario.is_correct sc y then
          Alcotest.(check (array int))
            (Printf.sprintf "targets of correct node %d" y)
            (Push_plan.targets plan ~s:sc.Scenario.initial.(y) ~y)
            (Compiled.push_targets cp ~y)
        else
          Alcotest.(check (array int))
            (Printf.sprintf "corrupted node %d has no compiled edges" y)
            [||] (Compiled.push_targets cp ~y)
      done)
    [ (48, 5L); (96, 23L) ]

let test_seeded_rows_match_sampler () =
  let sc = scenario ~n:64 ~seed:3L in
  let qi, _cp = compiled_of sc in
  let si = Params.sampler_i sc.Scenario.params in
  let intern = sc.Scenario.intern in
  for x = 0 to sc.Scenario.params.Params.n - 1 do
    Array.iter
      (fun s ->
        let sid = Intern.find intern s in
        Alcotest.(check (array int))
          (Printf.sprintf "qi row (%s, %d)" s x)
          (Sampler.quorum_sx si ~s ~x)
          (Cache.quorum_sid qi ~sid ~s ~x))
      sc.Scenario.initial
  done

(* --- Wire accounting --- *)

(* The wire rule written out by hand at n = 128: a 22-bit header (8-bit
   tag, two 7-bit node ids), 8 bits per string byte, a 64-bit label for
   Poll, Pull, Fw1 and Fw2, and one 7-bit id for Fw2 (x) or two for Fw1
   (x, w). Both entry points must charge it for every tag, for strings
   the build saw and for one interned after it (the slow path, taken
   once and then memoized). *)
let test_bits_rule () =
  let sc = scenario ~n:128 ~seed:9L in
  let wd = Words.of_scenario sc in
  let _qi, cp = compiled_of sc in
  let cfg = Aer.config_of_scenario sc in
  Aer.compile cfg;
  let header = 22 and label = 64 and id = 7 in
  let check s =
    let str = 8 * String.length s in
    List.iter
      (fun (what, p, bits) ->
        Alcotest.(check int) (what ^ ": Compiled.bits") bits (Compiled.bits cp p);
        Alcotest.(check int) (what ^ ": Aer.msg_bits") bits (Aer.msg_bits cfg p))
      [
        ("Push", Words.push wd s, header + str);
        ("Poll", Words.poll wd s ~r:77L, header + str + label);
        ("Pull", Words.pull wd s ~r:(-1L), header + str + label);
        ("Fw1", Words.fw1 wd ~x:5 s ~r:3L ~w:100, header + str + label + (2 * id));
        ("Fw2", Words.fw2 wd ~x:127 s ~r:0L, header + str + label + id);
        ("Answer", Words.answer wd s, header + str);
      ]
  in
  check sc.Scenario.gstring;
  check sc.Scenario.initial.(1);
  let late = "late-junk-string-after-compile" in
  check late;
  check late;
  match Compiled.bits cp 0 with
  | (_ : int) -> Alcotest.fail "invalid tag accepted"
  | exception Invalid_argument _ -> ()

let suites =
  [
    ( "compiled.int_table",
      [ prop_int_table; Alcotest.test_case "negative keys rejected" `Quick test_int_table_negative ]
    );
    ( "compiled.tables",
      [
        Alcotest.test_case "pos_sid/pos_rid agree with the mem oracles" `Quick test_pos_oracles;
        Alcotest.test_case "CSR fan-out equals Push_plan" `Quick test_csr_matches_push_plan;
        Alcotest.test_case "donated qi rows equal the sampler" `Quick test_seeded_rows_match_sampler;
        Alcotest.test_case "Compiled.bits equals the hand-written wire rule" `Quick
          test_bits_rule;
      ] );
  ]
