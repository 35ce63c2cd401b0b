open Fba_stdx

(* --- Pool: the domain worker pool behind experiment sweeps --- *)

(* Burn CPU so tasks finish out of submission order when sharded:
   early indices get the most work. Returns a value derived from the
   work so the loop cannot be optimized away. *)
let lopsided_task len i =
  let spins = (len - i) * 2000 in
  let acc = ref 0 in
  for k = 1 to spins do
    acc := (!acc + k) land 0xFFFF
  done;
  (i * i) + (!acc * 0)

let test_ordering_unequal_costs () =
  let len = 24 in
  let expected = Array.init len (fun i -> i * i) in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "ordered results at jobs=%d" jobs)
        expected
        (Pool.run ~jobs (lopsided_task len) len))
    [ 1; 2; 4 ]

let test_jobs_exceeding_len () =
  Alcotest.(check (array int)) "jobs > len" [| 0; 10; 20 |]
    (Pool.run ~jobs:16 (fun i -> 10 * i) 3)

let test_empty_and_singleton () =
  Alcotest.(check (array int)) "len=0" [||] (Pool.run ~jobs:4 (fun i -> i) 0);
  Alcotest.(check (array int)) "len=1" [| 7 |] (Pool.run ~jobs:4 (fun _ -> 7) 1)

let test_sequential_matches_parallel () =
  let f i = Hashtbl.hash (i * 31) in
  Alcotest.(check (array int)) "jobs=1 = jobs=4"
    (Pool.run ~jobs:1 f 50) (Pool.run ~jobs:4 f 50)

let test_exception_propagation () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "worker failure re-raised at jobs=%d" jobs)
        (Failure "boom")
        (fun () ->
          ignore (Pool.run ~jobs (fun i -> if i = 3 then failwith "boom" else i) 8)))
    [ 1; 4 ]

let test_first_failure_wins () =
  (* Two failing tasks: the lowest-index failure is the one reported,
     whatever order workers hit them in. *)
  let f i = if i = 2 then failwith "first" else if i = 6 then failwith "second" else i in
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "lowest-index failure at jobs=%d" jobs)
        (Failure "first")
        (fun () -> ignore (Pool.run ~jobs f 8)))
    [ 1; 4 ]

let test_map_list () =
  Alcotest.(check (list int)) "map_list keeps list order" [ 1; 4; 9; 16 ]
    (Pool.map_list ~jobs:3 (fun x -> x * x) [ 1; 2; 3; 4 ])

let test_recommended_jobs_bounds () =
  Alcotest.(check bool) "at least 1" true (Pool.recommended_jobs () >= 1)

let suites =
  [
    ( "stdx.pool",
      [
        Alcotest.test_case "ordering under unequal costs" `Quick test_ordering_unequal_costs;
        Alcotest.test_case "jobs exceeding len" `Quick test_jobs_exceeding_len;
        Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
        Alcotest.test_case "jobs=1 matches jobs=4" `Quick test_sequential_matches_parallel;
        Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
        Alcotest.test_case "lowest-index failure wins" `Quick test_first_failure_wins;
        Alcotest.test_case "map_list" `Quick test_map_list;
        Alcotest.test_case "recommended_jobs bounds" `Quick test_recommended_jobs_bounds;
      ] );
  ]
