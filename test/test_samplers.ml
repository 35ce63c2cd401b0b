open Fba_stdx
open Fba_samplers

let sampler ?(n = 128) ?(d = 12) ?(seed = 5L) () = Sampler.create ~seed ~n ~d

let test_quorum_shape () =
  let s = sampler () in
  let q = Sampler.quorum_sx s ~s:"candidate" ~x:7 in
  Alcotest.(check int) "size d" 12 (Array.length q);
  let sorted = Array.copy q in
  Array.sort compare sorted;
  for i = 1 to Array.length sorted - 1 do
    Alcotest.(check bool) "distinct members" true (sorted.(i) <> sorted.(i - 1))
  done;
  Array.iter (fun y -> Alcotest.(check bool) "in range" true (y >= 0 && y < 128)) q

let test_quorum_deterministic () =
  let s1 = sampler () and s2 = sampler () in
  Alcotest.(check (array int)) "same seed same quorum"
    (Sampler.quorum_sx s1 ~s:"abc" ~x:3)
    (Sampler.quorum_sx s2 ~s:"abc" ~x:3);
  let s3 = sampler ~seed:6L () in
  Alcotest.(check bool) "different seed differs" false
    (Sampler.quorum_sx s1 ~s:"abc" ~x:3 = Sampler.quorum_sx s3 ~s:"abc" ~x:3)

let test_quorum_key_sensitivity () =
  let s = sampler () in
  Alcotest.(check bool) "string matters" false
    (Sampler.quorum_sx s ~s:"a" ~x:3 = Sampler.quorum_sx s ~s:"b" ~x:3);
  Alcotest.(check bool) "node matters" false
    (Sampler.quorum_sx s ~s:"a" ~x:3 = Sampler.quorum_sx s ~s:"a" ~x:4);
  Alcotest.(check bool) "label matters" false
    (Sampler.quorum_xr s ~x:3 ~r:1L = Sampler.quorum_xr s ~x:3 ~r:2L)

let test_sampler_validation () =
  Alcotest.check_raises "d > n" (Invalid_argument "Sampler.create: need 1 <= d <= n")
    (fun () -> ignore (Sampler.create ~seed:1L ~n:4 ~d:5));
  Alcotest.check_raises "d = 0" (Invalid_argument "Sampler.create: need 1 <= d <= n")
    (fun () -> ignore (Sampler.create ~seed:1L ~n:4 ~d:0))

let test_d_equals_n () =
  (* Extreme case: the quorum must be the whole population. *)
  let s = Sampler.create ~seed:2L ~n:8 ~d:8 in
  let q = Sampler.quorum_sx s ~s:"full" ~x:0 in
  let sorted = Array.copy q in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "full population" (Array.init 8 (fun i -> i)) sorted

let test_majority_threshold () =
  Alcotest.(check int) "of 11" 6 (Sampler.majority_threshold 11);
  Alcotest.(check int) "of 12" 7 (Sampler.majority_threshold 12);
  Alcotest.(check int) "of 1" 1 (Sampler.majority_threshold 1)

(* --- Cache --- *)

let test_cache_equivalence () =
  let s = sampler () in
  let c = Cache.create s in
  for x = 0 to 20 do
    Alcotest.(check (array int)) "sid agrees"
      (Sampler.quorum_sx s ~s:"k" ~x)
      (Cache.quorum_sid c ~sid:0 ~s:"k" ~x);
    Alcotest.(check (array int)) "rid agrees"
      (Sampler.quorum_xr s ~x ~r:(Int64.of_int x))
      (Cache.quorum_rid c ~x ~rid:x ~r:(Int64.of_int x))
  done;
  Alcotest.(check bool) "mem agrees" true
    (Cache.mem_sid c ~sid:0 ~s:"k" ~x:1 ~y:(Sampler.quorum_sx s ~s:"k" ~x:1).(0))

let test_cache_returns_shared () =
  let c = Cache.create (sampler ()) in
  let q1 = Cache.quorum_sid c ~sid:0 ~s:"z" ~x:0 in
  let q2 = Cache.quorum_sid c ~sid:0 ~s:"z" ~x:0 in
  Alcotest.(check bool) "physically shared" true (q1 == q2);
  let j1 = Cache.quorum_rid c ~x:0 ~rid:0 ~r:7L in
  let j2 = Cache.quorum_rid c ~x:0 ~rid:0 ~r:7L in
  Alcotest.(check bool) "rid lane physically shared" true (j1 == j2)

(* --- Push_plan --- *)

let test_push_plan_inverse () =
  let s = sampler ~n:64 ~d:8 () in
  let plan = Push_plan.create ~sampler:s () in
  let str = "gstring" in
  (* y ∈ I(s, x) iff x ∈ targets(s, y). *)
  for x = 0 to 63 do
    let q = Push_plan.quorum plan ~s:str ~x in
    Array.iter
      (fun y ->
        let targets = Push_plan.targets plan ~s:str ~y in
        Alcotest.(check bool)
          (Printf.sprintf "x=%d in targets of y=%d" x y)
          true
          (Array.exists (fun v -> v = x) targets))
      q
  done;
  (* Total fan-out equals n*d. *)
  let total = ref 0 in
  for y = 0 to 63 do
    total := !total + Array.length (Push_plan.targets plan ~s:str ~y)
  done;
  Alcotest.(check int) "total inverse degree" (64 * 8) !total;
  Alcotest.(check bool) "max load sane" true (Push_plan.max_load plan ~s:str >= 8);
  Alcotest.(check int) "memo counts strings" 1 (Push_plan.distinct_strings plan)

(* --- Property_check --- *)

let good_set n fraction rng =
  let k = int_of_float (fraction *. float_of_int n) in
  Bitset.of_array n (Prng.sample_without_replacement rng ~n ~k)

let test_property1 () =
  let s = Sampler.create ~seed:3L ~n:256 ~d:16 in
  let rng = Prng.create 1L in
  let good = good_set 256 0.8 rng in
  let frac = Property_check.property1_estimate s ~good ~samples:3000 ~rng in
  Alcotest.(check bool) "few bad poll lists" true (frac < 0.05);
  (* With a good minority, most lists must be bad. *)
  let minority = good_set 256 0.2 (Prng.create 2L) in
  let frac2 = Property_check.property1_estimate s ~good:minority ~samples:1000 ~rng in
  Alcotest.(check bool) "minority flips the estimate" true (frac2 > 0.9)

let test_bad_quorum_fraction_bounds () =
  let s = Sampler.create ~seed:3L ~n:256 ~d:16 in
  let rng = Prng.create 4L in
  let all = good_set 256 1.0 rng in
  Alcotest.(check (float 1e-9)) "all good -> none bad" 0.0
    (Property_check.bad_quorum_fraction s ~good:all ~s:"any");
  let none = Bitset.create 256 in
  Alcotest.(check (float 1e-9)) "none good -> all bad" 1.0
    (Property_check.bad_quorum_fraction s ~good:none ~s:"any")

let test_worst_string_search_monotone () =
  let s = Sampler.create ~seed:3L ~n:128 ~d:10 in
  let rng = Prng.create 5L in
  let good = good_set 128 0.7 rng in
  let _, f1 = Property_check.worst_string_search s ~good ~rng ~tries:1 ~bits:64 in
  let _, f50 = Property_check.worst_string_search s ~good ~rng ~tries:50 ~bits:64 in
  Alcotest.(check bool) "more tries at least as bad" true (f50 >= f1)

let test_completion_search_respects_prefix () =
  let s = Sampler.create ~seed:3L ~n:128 ~d:10 in
  let rng = Prng.create 6L in
  let good = good_set 128 0.7 rng in
  let prefix = "0123456789abcdef" in
  let found, _ =
    Property_check.worst_completion_search s ~good ~rng ~tries:20 ~prefix ~free_bits:16
  in
  Alcotest.(check int) "same length" (String.length prefix) (String.length found);
  (* Only the last 16 bits (2 bytes) may change. *)
  Alcotest.(check string) "prefix preserved"
    (String.sub prefix 0 14)
    (String.sub found 0 14)

let test_overload_factor () =
  let s = Sampler.create ~seed:3L ~n:256 ~d:12 in
  let f = Property_check.overload_factor s ~strings:[ "a"; "b"; "c" ] in
  (* Mean inverse load is exactly d; the max should be within a small
     constant of it (Lemma 1's non-overload). *)
  Alcotest.(check bool) "bounded overload" true (f >= 1.0 && f < 3.5)

(* --- Affine sampler (the Section 2.2 strawman) --- *)

let test_affine_shape () =
  let t = Affine_sampler.create ~n:128 ~d:10 ~stride:11 in
  let q = Affine_sampler.quorum_sx t ~s:"abc" ~x:5 in
  Alcotest.(check int) "size" 10 (Array.length q);
  let sorted = Array.copy q in
  Array.sort compare sorted;
  for i = 1 to 9 do
    Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i - 1))
  done;
  Alcotest.(check (array int)) "deterministic" q (Affine_sampler.quorum_sx t ~s:"abc" ~x:5)

let test_affine_seizable () =
  let n = 256 in
  let d = 16 in
  let affine = Affine_sampler.create ~n ~d ~stride:16 in
  let hash = Sampler.create ~seed:3L ~n ~d in
  let budget = n / 5 in
  let a = Affine_sampler.seizable_fraction affine ~budget in
  let h = Property_check.seizable_fraction hash ~s:"g" ~budget in
  (* The structured construction is seized in bulk (the adversary
     knows the windows and corrupts progression blocks); the sampler
     is essentially immune at this budget (Section 2.2's dichotomy). *)
  Alcotest.(check bool) "affine heavily seized" true (a > 0.25);
  Alcotest.(check bool) "hash sampler resists" true (h < 0.05);
  Alcotest.(check bool) "ordering" true (a > 5.0 *. h +. 0.1)

let test_affine_validation () =
  Alcotest.check_raises "bad d" (Invalid_argument "Affine_sampler.create: need 1 <= d <= n")
    (fun () -> ignore (Affine_sampler.create ~n:8 ~d:9 ~stride:3));
  Alcotest.check_raises "bad stride"
    (Invalid_argument "Affine_sampler.create: need 1 <= stride < n") (fun () ->
      ignore (Affine_sampler.create ~n:8 ~d:4 ~stride:8))

(* --- Digraph --- *)

let test_boundary_bounds () =
  let s = Sampler.create ~seed:9L ~n:256 ~d:16 in
  let rng = Prng.create 7L in
  let l = Digraph.random_l s ~rng ~size:32 in
  let ratio = Digraph.boundary_ratio s l in
  Alcotest.(check bool) "ratio in [0,1]" true (ratio >= 0.0 && ratio <= 1.0);
  (* A random small L should expand well. *)
  Alcotest.(check bool) "random L expands" true (ratio > 2.0 /. 3.0)

let test_boundary_single_vertex () =
  let s = Sampler.create ~seed:9L ~n:256 ~d:16 in
  (* A single labeled vertex: only self-edges are internal. *)
  let l = [| { Digraph.node = 5; label = 77L } |] in
  let ratio = Digraph.boundary_ratio s l in
  let q = Sampler.quorum_xr s ~x:5 ~r:77L in
  let self = Array.fold_left (fun a y -> if y = 5 then a + 1 else a) 0 q in
  Alcotest.(check (float 1e-9)) "exact single-vertex boundary"
    (float_of_int (16 - self) /. 16.0)
    ratio

let test_boundary_validation () =
  let s = Sampler.create ~seed:9L ~n:64 ~d:8 in
  Alcotest.check_raises "empty L" (Invalid_argument "Digraph.boundary_ratio: empty L")
    (fun () -> ignore (Digraph.boundary_ratio s [||]));
  Alcotest.check_raises "duplicate node" (Invalid_argument "Digraph: at most one label per node")
    (fun () ->
      ignore
        (Digraph.boundary_ratio s
           [| { Digraph.node = 1; label = 1L }; { Digraph.node = 1; label = 2L } |]))

let test_greedy_weaker_than_random () =
  let s = Sampler.create ~seed:9L ~n:256 ~d:16 in
  let rng = Prng.create 8L in
  let size = 32 in
  let random_ratio = Digraph.boundary_ratio s (Digraph.random_l s ~rng ~size) in
  let greedy_ratio =
    Digraph.boundary_ratio s (Digraph.greedy_adversarial_l s ~rng ~size ~labels_per_step:16)
  in
  Alcotest.(check bool) "greedy attack shrinks the boundary" true (greedy_ratio < random_ratio)

let suites =
  [
    ( "samplers.sampler",
      [
        Alcotest.test_case "quorum shape" `Quick test_quorum_shape;
        Alcotest.test_case "deterministic" `Quick test_quorum_deterministic;
        Alcotest.test_case "key sensitivity" `Quick test_quorum_key_sensitivity;
        Alcotest.test_case "validation" `Quick test_sampler_validation;
        Alcotest.test_case "d = n" `Quick test_d_equals_n;
        Alcotest.test_case "majority threshold" `Quick test_majority_threshold;
      ] );
    ( "samplers.cache",
      [
        Alcotest.test_case "equivalence" `Quick test_cache_equivalence;
        Alcotest.test_case "sharing" `Quick test_cache_returns_shared;
      ] );
    ("samplers.push_plan", [ Alcotest.test_case "inverse consistency" `Quick test_push_plan_inverse ]);
    ( "samplers.properties",
      [
        Alcotest.test_case "property 1" `Quick test_property1;
        Alcotest.test_case "bad-quorum extremes" `Quick test_bad_quorum_fraction_bounds;
        Alcotest.test_case "worst-string search monotone" `Quick test_worst_string_search_monotone;
        Alcotest.test_case "completion search prefix" `Quick test_completion_search_respects_prefix;
        Alcotest.test_case "overload factor" `Quick test_overload_factor;
      ] );
    ( "samplers.affine",
      [
        Alcotest.test_case "quorum shape" `Quick test_affine_shape;
        Alcotest.test_case "seizability dichotomy" `Quick test_affine_seizable;
        Alcotest.test_case "validation" `Quick test_affine_validation;
      ] );
    ( "samplers.digraph",
      [
        Alcotest.test_case "boundary bounds" `Quick test_boundary_bounds;
        Alcotest.test_case "single-vertex boundary" `Quick test_boundary_single_vertex;
        Alcotest.test_case "validation" `Quick test_boundary_validation;
        Alcotest.test_case "greedy beats random" `Quick test_greedy_weaker_than_random;
      ] );
  ]
