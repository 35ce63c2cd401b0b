(* Property-based tests (qcheck) on the core data structures and
   protocol invariants. *)

open Fba_stdx

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let seed_gen = QCheck2.Gen.map Int64.of_int (QCheck2.Gen.int_range 1 1_000_000)

(* --- Prng properties --- *)

let prop_prng_int_in_bounds =
  qtest "Prng.int stays in bounds"
    QCheck2.Gen.(pair seed_gen (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Prng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_sample_distinct =
  qtest "sample_without_replacement: distinct, in range, right size"
    QCheck2.Gen.(pair seed_gen (pair (int_range 1 300) (int_range 0 300)))
    (fun (seed, (n, k0)) ->
      let k = min k0 n in
      let rng = Prng.create seed in
      let s = Prng.sample_without_replacement rng ~n ~k in
      let sorted = Array.copy s in
      Array.sort compare sorted;
      let distinct = ref true in
      for i = 1 to k - 1 do
        if sorted.(i) = sorted.(i - 1) then distinct := false
      done;
      Array.length s = k && !distinct && Array.for_all (fun v -> v >= 0 && v < n) s)

let prop_bits_masked =
  qtest "Prng.bits masks unused high bits"
    QCheck2.Gen.(pair seed_gen (int_range 1 128))
    (fun (seed, k) ->
      let rng = Prng.create seed in
      let b = Prng.bits rng k in
      let nbytes = (k + 7) / 8 in
      let rem = k mod 8 in
      Bytes.length b = nbytes
      && (rem = 0 || Char.code (Bytes.get b (nbytes - 1)) land lnot ((1 lsl rem) - 1) = 0))

(* --- Bitset model-based --- *)

module ISet = Set.Make (Int)

let prop_bitset_model =
  qtest "Bitset agrees with a functional set model"
    QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 63))
    (fun adds ->
      let bs = Bitset.create 64 in
      List.iter (Bitset.add bs) adds;
      let model = ISet.of_list adds in
      Bitset.cardinal bs = ISet.cardinal model
      && List.for_all (fun v -> Bitset.mem bs v = ISet.mem v model) (List.init 64 (fun i -> i))
      && Bitset.to_list bs = ISet.elements model)

(* --- Stats --- *)

let prop_percentile_bounded =
  qtest "percentile stays within [min, max]"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 50) (float_range (-1000.) 1000.))
        (float_range 0.0 100.0))
    (fun (l, p) ->
      let a = Array.of_list l in
      let v = Stats.percentile a p in
      v >= Array.fold_left min a.(0) a -. 1e-9 && v <= Array.fold_left max a.(0) a +. 1e-9)

let prop_binomial_tail_monotone =
  qtest "binomial tail is non-increasing in the threshold"
    QCheck2.Gen.(pair (int_range 1 40) (float_range 0.01 0.99))
    (fun (trials, p) ->
      let ok = ref true in
      let prev = ref 1.1 in
      for k = 0 to trials + 1 do
        let v = Stats.binomial_tail ~trials ~p ~at_least:k in
        if v > !prev +. 1e-12 then ok := false;
        prev := v
      done;
      !ok)

(* --- Sampler invariants --- *)

(* Hash64.draw is the samplers' allocation-free draw; the composition
   it replaces is its oracle, error included. *)
let prop_hash64_draw =
  qtest ~count:500 "Hash64.draw = to_range (finish (add_int key i))"
    QCheck2.Gen.(
      triple int64 int (oneof [ int_range (-3) 0; int_range 1 2048; int_range 1 max_int ]))
    (fun (key, i, bound) ->
      let outcome f = match f () with v -> Some v | exception Invalid_argument _ -> None in
      let drawn = outcome (fun () -> Hash64.draw key i ~bound) in
      drawn = outcome (fun () -> Hash64.to_range (Hash64.finish (Hash64.add_int key i)) bound)
      && (drawn = None) = (bound <= 0))

let prop_sampler_quorum_invariants =
  qtest "quorums: exact size, distinct members, deterministic"
    QCheck2.Gen.(pair seed_gen (pair (int_range 0 1023) (small_string ~gen:printable)))
    (fun (seed, (x, s)) ->
      let sampler = Fba_samplers.Sampler.create ~seed ~n:1024 ~d:16 in
      let q1 = Fba_samplers.Sampler.quorum_sx sampler ~s ~x in
      let q2 = Fba_samplers.Sampler.quorum_sx sampler ~s ~x in
      let sorted = Array.copy q1 in
      Array.sort compare sorted;
      let distinct = ref true in
      for i = 1 to 15 do
        if sorted.(i) = sorted.(i - 1) then distinct := false
      done;
      Array.length q1 = 16 && q1 = q2 && !distinct
      && Array.for_all (fun y -> y >= 0 && y < 1024) q1)

let prop_push_plan_inverse =
  qtest ~count:20 "push plan is the exact inverse of I"
    QCheck2.Gen.(pair seed_gen (small_string ~gen:printable))
    (fun (seed, s) ->
      let sampler = Fba_samplers.Sampler.create ~seed ~n:64 ~d:6 in
      let plan = Fba_samplers.Push_plan.create ~sampler () in
      let ok = ref true in
      for y = 0 to 63 do
        let targets = Fba_samplers.Push_plan.targets plan ~s ~y in
        Array.iter
          (fun x ->
            if not (Array.mem y (Fba_samplers.Sampler.quorum_sx sampler ~s ~x)) then ok := false)
          targets
      done;
      (* and every membership is covered *)
      for x = 0 to 63 do
        Array.iter
          (fun y ->
            let targets = Fba_samplers.Push_plan.targets plan ~s ~y in
            if not (Array.exists (fun v -> v = x) targets) then ok := false)
          (Fba_samplers.Sampler.quorum_sx sampler ~s ~x)
      done;
      !ok)

(* --- Histogram model-based --- *)

let prop_histogram_model =
  qtest "Histogram agrees with a list model"
    QCheck2.Gen.(list_size (int_range 0 100) (int_range 0 20))
    (fun values ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) values;
      (* The smallest value with at least p% of the values at or below it. *)
      let model p =
        let target = p /. 100.0 *. float_of_int (List.length values) in
        let at_or_below v = List.length (List.filter (fun x -> x <= v) values) in
        let covers v = float_of_int (at_or_below v) >= target in
        List.find_opt covers (List.sort_uniq compare values)
      in
      Histogram.total h = List.length values
      && List.for_all
           (fun p -> Histogram.percentile_opt h p = model p)
           [ 0.0; 1.0; 25.0; 50.0; 95.0; 99.0; 100.0 ]
      && (values = [] || Histogram.max_value h = Some (List.fold_left max 0 values)))

let prop_histogram_percentile_monotone =
  qtest "Histogram percentiles are monotone in p"
    QCheck2.Gen.(list_size (int_range 1 60) (int_range 0 30))
    (fun values ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) values;
      let ps = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 100.0 ] in
      let qs = List.map (Histogram.percentile_opt h) ps in
      let rec mono = function a :: (b :: _ as rest) -> a <= b && mono rest | _ -> true in
      mono qs)

(* --- Plurality --- *)

let prop_plurality_model =
  qtest "Plurality agrees with a list model"
    QCheck2.Gen.(
      list_size (int_range 0 60)
        (pair (int_range 0 15) (string_size ~gen:(char_range 'a' 'c') (int_range 0 2))))
    (fun votes ->
      let t = Plurality.create ~voters:16 in
      List.iter (fun (voter, v) -> Plurality.add t ~voter v) votes;
      (* The model: each voter slot's first vote, then the most votes,
         then the smallest string. *)
      let _, firsts =
        List.fold_left
          (fun (seen, acc) (voter, v) ->
            if List.mem voter seen then (seen, acc) else (voter :: seen, v :: acc))
          ([], []) votes
      in
      let count v = List.length (List.filter (String.equal v) firsts) in
      let values = List.sort_uniq String.compare firsts in
      let top = List.fold_left (fun m v -> max m (count v)) 0 values in
      let expected = List.find_opt (fun v -> count v = top) values in
      Plurality.winner t = expected && Plurality.winner_votes t = top)

(* --- Committee relay assignment --- *)

let prop_relay_assignment_consistent =
  qtest ~count:25 "relay assignment is consistent both ways"
    QCheck2.Gen.(pair seed_gen (int_range 16 200))
    (fun (seed, n) ->
      let cfg =
        Fba_extensions.Committee_relay.make_config ~n ~seed ~initial:(fun _ -> "v")
          ~str_bits:8 ()
      in
      let committee = Fba_extensions.Committee_relay.committee cfg in
      Array.length committee >= 1 && Array.length committee <= n
      && Array.for_all (fun id -> id >= 0 && id < n) committee)

(* --- Protocol-level properties --- *)

let prop_majority_thresholds =
  qtest "majority threshold is a strict majority"
    QCheck2.Gen.(int_range 1 100)
    (fun k ->
      let m = Fba_samplers.Sampler.majority_threshold k in
      (2 * m > k) && (2 * (m - 1) <= k))

let prop_aer_safety_random_small =
  (* Randomized mini-executions: whatever the seed, no correct node may
     decide anything but gstring under the flooding adversary. *)
  qtest ~count:6 "AER safety on random small instances"
    seed_gen
    (fun seed ->
      let n = 48 in
      let params =
        Fba_core.Params.make_for ~n ~seed ~byzantine_fraction:0.1 ~knowledgeable_fraction:0.85 ()
      in
      let rng = Prng.create (Int64.add seed 7L) in
      let sc =
        Fba_core.Scenario.make ~junk:(Fba_core.Scenario.Junk_shared 2) ~params ~rng
          ~byzantine_fraction:0.1 ~knowledgeable_fraction:0.85 ()
      in
      let cfg = Fba_core.Aer.config_of_scenario sc in
      let module E = Fba_sim.Sync_engine.Make (Fba_core.Aer) in
      let adversary =
        Fba_adversary.Aer_attacks.(compose sc [ push_flood sc; wrong_answer sc ])
      in
      let res =
        E.run ~config:cfg ~n ~seed:params.Fba_core.Params.seed ~adversary ~mode:`Rushing
          ~max_rounds:100 ()
      in
      let safe = ref true in
      Array.iteri
        (fun i o ->
          if Fba_core.Scenario.is_correct sc i then
            match o with
            | Some v when v <> sc.Fba_core.Scenario.gstring -> safe := false
            | _ -> ())
        res.Fba_sim.Sync_engine.outputs;
      !safe)

let prop_phase_king_agreement_random =
  qtest ~count:15 "phase king agreement on random inputs"
    QCheck2.Gen.(pair seed_gen (int_range 4 16))
    (fun (seed, m) ->
      let members = Array.init m (fun i -> i) in
      let rng = Prng.create seed in
      let initial = Array.init m (fun _ -> if Prng.bool rng then "a" else "b") in
      let machines =
        Array.to_list
          (Array.map
             (fun me -> (me, Fba_aeba.Phase_king.create ~members ~me ~initial:initial.(me)))
             members)
      in
      let rounds = Fba_aeba.Phase_king.rounds_needed (snd (List.hd machines)) in
      let mailbox = ref [] in
      for round = 0 to rounds do
        let deliveries = !mailbox in
        mailbox := [];
        List.iter
          (fun (dst, src, msg) ->
            match List.assoc_opt dst machines with
            | Some machine -> Fba_aeba.Phase_king.on_receive machine ~round ~src msg
            | None -> ())
          deliveries;
        List.iter
          (fun (me, machine) ->
            List.iter
              (fun (dst, msg) -> mailbox := (dst, me, msg) :: !mailbox)
              (Fba_aeba.Phase_king.on_round machine ~round))
          machines
      done;
      match machines with
      | [] -> true
      | (_, first) :: rest ->
        let v = Fba_aeba.Phase_king.current first in
        List.for_all (fun (_, m) -> Fba_aeba.Phase_king.current m = v) rest)

let prop_scenario_invariants =
  qtest ~count:30 "Scenario.make invariants under random fractions"
    QCheck2.Gen.(triple seed_gen (float_range 0.0 0.32) (float_range 0.55 0.95))
    (fun (seed, byz, kn) ->
      let n = 96 in
      QCheck2.assume (byz +. kn <= 0.99);
      let params = Fba_core.Params.make ~n ~seed () in
      let rng = Prng.create seed in
      let sc =
        Fba_core.Scenario.make ~params ~rng ~byzantine_fraction:byz
          ~knowledgeable_fraction:kn ()
      in
      let corrupted = sc.Fba_core.Scenario.corrupted in
      let knowledgeable = sc.Fba_core.Scenario.knowledgeable in
      (* counts, disjointness, assignment consistency *)
      Bitset.cardinal corrupted = int_of_float (byz *. float_of_int n)
      && Bitset.cardinal knowledgeable = int_of_float (ceil (kn *. float_of_int n))
      && List.for_all (fun i -> not (Bitset.mem corrupted i)) (Bitset.to_list knowledgeable)
      && List.for_all
           (fun i -> sc.Fba_core.Scenario.initial.(i) = sc.Fba_core.Scenario.gstring)
           (Bitset.to_list knowledgeable)
      && Array.length sc.Fba_core.Scenario.initial = n)

let prop_committee_tree_shapes =
  qtest ~count:30 "Committee_tree structural invariants under random shapes"
    QCheck2.Gen.(triple seed_gen (int_range 2 300) (pair (int_range 1 40) (int_range 1 40)))
    (fun (seed, n, (group_size, committee_size)) ->
      let t = Fba_aeba.Committee_tree.build ~n ~seed ~group_size ~committee_size in
      let g = Fba_aeba.Committee_tree.group_count t in
      (* groups are a power of two and partition [0, n) *)
      g = 1 lsl Fba_aeba.Committee_tree.levels t
      && (let covered = Array.make n 0 in
          for k = 0 to g - 1 do
            Array.iter (fun id -> covered.(id) <- covered.(id) + 1)
              (Fba_aeba.Committee_tree.group_members t k)
          done;
          Array.for_all (fun c -> c = 1) covered)
      && (* every committee has the clamped size with distinct in-range members *)
      (let m = Fba_aeba.Committee_tree.committee_size t in
       let ok = ref true in
       for level = 0 to Fba_aeba.Committee_tree.levels t do
         for index = 0 to (1 lsl level) - 1 do
           let c = Fba_aeba.Committee_tree.committee t ~level ~index in
           if Array.length c <> m then ok := false;
           Array.iter (fun id -> if id < 0 || id >= n then ok := false) c
         done
       done;
       !ok))

let prop_cache_equals_sampler =
  qtest ~count:50 "Cache returns exactly the sampler's quorums"
    QCheck2.Gen.(triple seed_gen (int_range 0 255) (small_string ~gen:printable))
    (fun (seed, x, s) ->
      let sampler = Fba_samplers.Sampler.create ~seed ~n:256 ~d:10 in
      let cache = Fba_samplers.Cache.create sampler in
      Fba_samplers.Cache.quorum_sid cache ~sid:0 ~s ~x
      = Fba_samplers.Sampler.quorum_sx sampler ~s ~x
      && Fba_samplers.Cache.quorum_rid cache ~x ~rid:0 ~r:seed
         = Fba_samplers.Sampler.quorum_xr sampler ~x ~r:seed)

let suites =
  [
    ( "props.prng",
      [ prop_prng_int_in_bounds; prop_sample_distinct; prop_bits_masked ] );
    ("props.bitset", [ prop_bitset_model ]);
    ("props.stats", [ prop_percentile_bounded; prop_binomial_tail_monotone ]);
    ( "props.samplers",
      [ prop_sampler_quorum_invariants; prop_push_plan_inverse; prop_hash64_draw ] );
    ("props.histogram", [ prop_histogram_model; prop_histogram_percentile_monotone ]);
    ("props.plurality", [ prop_plurality_model ]);
    ("props.extensions", [ prop_relay_assignment_consistent ]);
    ( "props.structures",
      [ prop_scenario_invariants; prop_committee_tree_shapes; prop_cache_equals_sampler ] );
    ( "props.protocol",
      [ prop_majority_thresholds; prop_aer_safety_random_small; prop_phase_king_agreement_random ] );
  ]
