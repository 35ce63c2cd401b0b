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
   - wire accounting: [Compiled.bits] equals [Packed.bits], including
     for strings interned after compilation.

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
module Packed = Msg.Packed

(* --- Int_table vs Hashtbl model --- *)

type iop = Set of int * int | Add of int | Incr of int | Add_bit of int * int | Mem of int | Clear

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
      map2 (fun k b -> Add_bit (k, b)) k (int_range 0 61);
      map (fun k -> Mem k) k;
      return Clear;
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
               | Add_bit (k, b) ->
                 let fresh = Int_table.add_bit t k ~bit:b in
                 let prev = match Hashtbl.find_opt model k with Some v -> v | None -> 0 in
                 Hashtbl.replace model k (prev lor (1 lsl b));
                 fresh = (prev land (1 lsl b) = 0)
               | Mem k -> Int_table.mem t k = Hashtbl.mem model k
               | Clear ->
                 Int_table.clear t;
                 Hashtbl.reset model;
                 true
             in
             ok
             && Int_table.length t = Hashtbl.length model
             && (match op with
                | Set (k, _) | Add k | Incr k | Add_bit (k, _) | Mem k ->
                  Int_table.get_or t k ~default:min_int = get_m k
                | Clear -> true))
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
  rejects "incr" (fun () -> ignore (Int_table.incr t (-1)));
  rejects "add_bit" (fun () -> ignore (Int_table.add_bit t (-1) ~bit:0))

(* --- Shared scenario fixtures --- *)

let scenario ~n ~seed = Runner.scenario_of_setup Runner.default_setup ~n ~seed

(* Build against a local push cache (what Aer.compile does with the
   config's qi), keeping the donated rows inspectable. *)
let compiled_of sc =
  let find s = Intern.find sc.Scenario.intern s in
  let qi = Cache.create ~find (Params.sampler_i sc.Scenario.params) in
  let cp = Compiled.build ~scenario:sc ~qi () in
  (qi, cp)

(* --- Position oracles --- *)

let test_pos_oracles () =
  let sc = scenario ~n:64 ~seed:11L in
  let params = sc.Scenario.params in
  let intern = sc.Scenario.intern in
  let find s = Intern.find intern s in
  let qh = Cache.create ~find (Params.sampler_h params) in
  let qj = Cache.create ~find (Params.sampler_j params) in
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
  Alcotest.(check bool) "J quorum is a proper subset" true (!members = Array.length q && !members < n)

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

let test_bits_agree () =
  let sc = scenario ~n:128 ~seed:9L in
  let params = sc.Scenario.params in
  let intern = sc.Scenario.intern in
  let lt = sc.Scenario.layout in
  let _qi, cp = compiled_of sc in
  let check_msg m =
    let p = Packed.pack lt intern m in
    Alcotest.(check int)
      (Format.asprintf "bits of %a" Msg.pp m)
      (Packed.bits lt params intern p) (Compiled.bits cp p)
  in
  let s0 = sc.Scenario.gstring and s1 = sc.Scenario.initial.(1) in
  List.iter check_msg
    [
      Msg.Push s0;
      Msg.Answer s1;
      Msg.Poll { s = s0; r = 77L };
      Msg.Pull { s = s1; r = -1L };
      Msg.Fw1 { x = 5; s = s0; r = 3L; w = 100 };
      Msg.Fw2 { x = 127; s = s1; r = 0L };
    ];
  (* A string the compiler never saw (interned after the build, as an
     adversary's junk would be) takes the slow path, once. *)
  let late = "late-junk-string-after-compile" in
  ignore (Intern.intern intern late);
  check_msg (Msg.Push late);
  check_msg (Msg.Push late);
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
        Alcotest.test_case "Compiled.bits equals Packed.bits" `Quick test_bits_agree;
      ] );
  ]
