open Fba_stdx

(* --- Intx --- *)

let test_ilog2 () =
  Alcotest.(check int) "ilog2 1" 0 (Intx.ilog2 1);
  Alcotest.(check int) "ilog2 2" 1 (Intx.ilog2 2);
  Alcotest.(check int) "ilog2 3" 1 (Intx.ilog2 3);
  Alcotest.(check int) "ilog2 1024" 10 (Intx.ilog2 1024);
  Alcotest.(check int) "ilog2 1025" 10 (Intx.ilog2 1025);
  Alcotest.check_raises "ilog2 0" (Invalid_argument "Intx.ilog2: non-positive argument")
    (fun () -> ignore (Intx.ilog2 0))

let test_ceil_log2 () =
  Alcotest.(check int) "ceil_log2 1" 0 (Intx.ceil_log2 1);
  Alcotest.(check int) "ceil_log2 2" 1 (Intx.ceil_log2 2);
  Alcotest.(check int) "ceil_log2 3" 2 (Intx.ceil_log2 3);
  Alcotest.(check int) "ceil_log2 1024" 10 (Intx.ceil_log2 1024);
  Alcotest.(check int) "ceil_log2 1025" 11 (Intx.ceil_log2 1025)

let test_isqrt () =
  Alcotest.(check int) "isqrt 0" 0 (Intx.isqrt 0);
  Alcotest.(check int) "isqrt 1" 1 (Intx.isqrt 1);
  Alcotest.(check int) "isqrt 15" 3 (Intx.isqrt 15);
  Alcotest.(check int) "isqrt 16" 4 (Intx.isqrt 16);
  Alcotest.(check int) "isqrt 1000000" 1000 (Intx.isqrt 1000000)

let test_pow_cdiv_clamp () =
  Alcotest.(check int) "pow 2^10" 1024 (Intx.pow 2 10);
  Alcotest.(check int) "pow x^0" 1 (Intx.pow 7 0);
  Alcotest.(check int) "cdiv exact" 3 (Intx.cdiv 9 3);
  Alcotest.(check int) "cdiv round up" 4 (Intx.cdiv 10 3);
  Alcotest.(check int) "clamp below" 2 (Intx.clamp ~lo:2 ~hi:5 0);
  Alcotest.(check int) "clamp above" 5 (Intx.clamp ~lo:2 ~hi:5 9);
  Alcotest.(check int) "clamp inside" 3 (Intx.clamp ~lo:2 ~hi:5 3)

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next64 a) (Prng.next64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 42L and b = Prng.create 43L in
  Alcotest.(check bool) "different seeds differ" false (Prng.next64 a = Prng.next64 b)

let test_prng_int_bounds () =
  let rng = Prng.create 7L in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: non-positive bound") (fun () ->
      ignore (Prng.int rng 0))

let test_prng_float_range () =
  let rng = Prng.create 3L in
  for _ = 1 to 1000 do
    let v = Prng.float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_prng_split_independent () =
  let base = Prng.create 1L in
  let child = Prng.split base in
  (* The two streams should not be identical. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next64 base = Prng.next64 child then incr same
  done;
  Alcotest.(check bool) "streams diverge" true (!same < 4)

let test_prng_split_at_distinct () =
  let base = Prng.create 5L in
  let a = Prng.split_at base 0 and b = Prng.split_at base 1 in
  Alcotest.(check bool) "distinct indices distinct streams" false
    (Prng.next64 a = Prng.next64 b);
  (* split_at must not consume base state: same index twice gives the
     same stream. *)
  let c = Prng.split_at base 0 in
  let a' = Prng.split_at base 0 in
  Alcotest.(check int64) "split_at is pure" (Prng.next64 c) (Prng.next64 a')

let test_prng_bits () =
  let rng = Prng.create 11L in
  let b = Prng.bits rng 12 in
  Alcotest.(check int) "12 bits = 2 bytes" 2 (Bytes.length b);
  (* The top 4 bits of the last byte must be zero. *)
  Alcotest.(check int) "high bits masked" 0 (Char.code (Bytes.get b 1) land 0xf0);
  Alcotest.(check int) "0 bits = empty" 0 (Bytes.length (Prng.bits rng 0))

let test_sample_without_replacement () =
  let rng = Prng.create 13L in
  List.iter
    (fun (n, k) ->
      let s = Prng.sample_without_replacement rng ~n ~k in
      Alcotest.(check int) "size" k (Array.length s);
      let sorted = Array.copy s in
      Array.sort compare sorted;
      for i = 1 to k - 1 do
        Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i - 1))
      done;
      Array.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < n)) s)
    [ (10, 10); (10, 3); (1000, 5); (100, 99); (1, 0) ]

let test_shuffle_permutation () =
  let rng = Prng.create 17L in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_prng_chi_square () =
  (* 16 buckets, 8000 draws: chi-square statistic should sit well below
     the 0.001-significance cutoff (~39 for 15 dof). *)
  let rng = Prng.create 99L in
  let buckets = Array.make 16 0 in
  let draws = 8000 in
  for _ = 1 to draws do
    let b = Prng.int rng 16 in
    buckets.(b) <- buckets.(b) + 1
  done;
  let expected = float_of_int draws /. 16.0 in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 buckets
  in
  Alcotest.(check bool) (Printf.sprintf "chi2 = %.1f < 39" chi2) true (chi2 < 39.0)

(* --- Hash64 --- *)

let test_hash_deterministic () =
  let h1 = Hash64.hash_string ~seed:1L "hello" in
  let h2 = Hash64.hash_string ~seed:1L "hello" in
  Alcotest.(check int64) "same input same hash" h1 h2;
  Alcotest.(check bool) "different seed differs" false
    (Hash64.hash_string ~seed:2L "hello" = h1);
  Alcotest.(check bool) "different input differs" false
    (Hash64.hash_string ~seed:1L "hellp" = h1)

let test_hash_length_matters () =
  (* "a" absorbed then "b" must differ from "ab" then "" etc. *)
  let h1 = Hash64.finish (Hash64.add_string (Hash64.add_string (Hash64.init 1L) "a") "b") in
  let h2 = Hash64.finish (Hash64.add_string (Hash64.add_string (Hash64.init 1L) "ab") "") in
  Alcotest.(check bool) "no concatenation collision" false (h1 = h2)

let test_hash_to_range () =
  let rng = Prng.create 23L in
  for _ = 1 to 500 do
    let h = Prng.int64 rng in
    let v = Hash64.to_range h 97 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 97)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Hash64.to_range: non-positive bound")
    (fun () -> ignore (Hash64.to_range 5L 0))

let test_hash_add_ints () =
  let a = Array.init 50 (fun i -> (i * 7919) - 100) in
  let folded = Array.fold_left Hash64.add_int (Hash64.init 3L) a in
  Alcotest.(check int64) "add_int folded" folded
    (Hash64.add_ints (Hash64.init 3L) 50 (Array.get a));
  Alcotest.(check int64) "no words" (Hash64.init 3L)
    (Hash64.add_ints (Hash64.init 3L) 0 (Array.get a))

let test_hash_uniformity_rough () =
  (* Chi-square-free sanity: all 16 buckets populated over 4096 hashes. *)
  let buckets = Array.make 16 0 in
  for i = 0 to 4095 do
    let h = Hash64.finish (Hash64.add_int (Hash64.init 9L) i) in
    let b = Hash64.to_range h 16 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter (fun c -> Alcotest.(check bool) "bucket populated" true (c > 150)) buckets

(* --- Bitset --- *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  Alcotest.(check int) "empty" 0 (Bitset.cardinal s);
  Bitset.add s 0;
  Bitset.add s 99;
  Bitset.add s 42;
  Bitset.add s 42;
  Alcotest.(check int) "cardinal after adds" 3 (Bitset.cardinal s);
  Alcotest.(check bool) "mem 42" true (Bitset.mem s 42);
  Alcotest.(check bool) "not mem 41" false (Bitset.mem s 41);
  Bitset.remove s 42;
  Alcotest.(check bool) "removed" false (Bitset.mem s 42);
  Alcotest.(check (list int)) "to_list sorted" [ 0; 99 ] (Bitset.to_list s);
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: element out of range")
    (fun () -> Bitset.add s 100)

let test_bitset_set_ops () =
  let a = Bitset.of_list 20 [ 1; 2; 3; 10 ] in
  let b = Bitset.of_list 20 [ 3; 10; 11 ] in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 10; 11 ] (Bitset.to_list (Bitset.union a b));
  Alcotest.(check (list int)) "inter" [ 3; 10 ] (Bitset.to_list (Bitset.inter a b));
  Alcotest.(check (list int)) "diff" [ 1; 2 ] (Bitset.to_list (Bitset.diff a b))

let test_bitset_complement () =
  let a = Bitset.of_list 10 [ 0; 5; 9 ] in
  let c = Bitset.complement a in
  Alcotest.(check (list int)) "complement" [ 1; 2; 3; 4; 6; 7; 8 ] (Bitset.to_list c);
  Alcotest.(check int) "cardinals sum" 10 (Bitset.cardinal a + Bitset.cardinal c)

let test_bitset_count_in () =
  let a = Bitset.of_list 10 [ 1; 3; 5 ] in
  Alcotest.(check int) "count_in" 2 (Bitset.count_in a [| 1; 2; 5; 6 |])

let test_bitset_copy_clear () =
  let a = Bitset.of_list 8 [ 1; 2 ] in
  let b = Bitset.copy a in
  Bitset.add b 3;
  Alcotest.(check int) "copy is independent" 2 (Bitset.cardinal a);
  Bitset.clear b;
  Alcotest.(check int) "clear" 0 (Bitset.cardinal b)

let test_bitset_equal () =
  let a = Bitset.of_list 70 [ 0; 33; 69 ] in
  let b = Bitset.of_list 70 [ 0; 33; 69 ] in
  let c = Bitset.of_list 70 [ 0; 33 ] in
  Alcotest.(check bool) "equal" true (Bitset.equal a b);
  Alcotest.(check bool) "unequal members" false (Bitset.equal a c);
  Alcotest.(check bool) "unequal capacity" false (Bitset.equal a (Bitset.of_list 71 [ 0; 33; 69 ]));
  (* add + remove must leave no phantom bits behind *)
  Bitset.add c 69;
  Bitset.add c 42;
  Bitset.remove c 42;
  Alcotest.(check bool) "equal after add/remove" true (Bitset.equal a c)

(* --- Vec --- *)

let test_vec_push_get () =
  let v = Vec.create () in
  Alcotest.(check bool) "fresh empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 7" 49 (Vec.get v 7);
  Vec.set v 7 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 7);
  Alcotest.(check (list int)) "to_list order" [ 0; 1; 4 ]
    (Vec.to_list v |> List.filteri (fun i _ -> i < 3));
  Alcotest.(check int) "fold" (Vec.fold_left ( + ) 0 v)
    (Array.fold_left ( + ) 0 (Vec.to_array v))

let test_vec_clear_reuse () =
  let v = Vec.create () in
  Vec.push v "a";
  Vec.push v "b";
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v);
  Vec.push v "c";
  Alcotest.(check string) "reused storage" "c" (Vec.get v 0);
  Alcotest.(check (list string)) "of_list round trip" [ "x"; "y" ]
    (Vec.to_list (Vec.of_list [ "x"; "y" ]))

let test_vec_iter_sees_mid_iteration_pushes () =
  let v = Vec.of_list [ 0; 1; 2 ] in
  let seen = ref [] in
  Vec.iter (fun x ->
      seen := x :: !seen;
      if x < 2 then Vec.push v (x + 10))
    v;
  (* iter re-reads the length, so elements pushed during iteration are
     visited too — the delivery loops rely on this. *)
  Alcotest.(check (list int)) "visited appended" [ 0; 1; 2; 10; 11 ] (List.rev !seen)

let test_vec_boxed_reads () =
  (* Vec.get inlines into this module; the let-bound int64 and float
     reads below are the shape ocamlopt 5.1 unboxed as a float when
     the generic read was not fenced (Intern.label's, in AER). *)
  let labels = Vec.create () and floats = Vec.create () in
  for i = 0 to 9 do
    Vec.push labels (Int64.of_int ((i * 1000) + 7));
    Vec.push floats (float_of_int i +. 0.5)
  done;
  for i = 0 to 9 do
    let r = Vec.get labels i in
    Alcotest.(check int64) "int64 element" (Int64.of_int ((i * 1000) + 7)) r;
    let f = Vec.get floats i in
    Alcotest.(check (float 0.)) "float element" (float_of_int i +. 0.5) f
  done

(* --- Int_table --- *)

(* Words [f ()] allocates (an array past the minor heap's object limit
   goes straight to the major heap, which the count includes), net of
   what one read of the counter allocates itself. *)
let words_during f =
  let a = Test_streamed.allocated_words () in
  let b = Test_streamed.allocated_words () in
  f ();
  let c = Test_streamed.allocated_words () in
  int_of_float (c -. b -. (b -. a))

let test_int_table_reserve () =
  let t = Int_table.create () in
  let key i = i * 0x10001 in
  for i = 0 to 99 do
    Int_table.set t (key i) (i + 1)
  done;
  Int_table.reserve t 3000;
  Alcotest.(check int) "length kept" 100 (Int_table.length t);
  for i = 0 to 99 do
    if Int_table.get_or t (key i) ~default:0 <> i + 1 then
      Alcotest.failf "key %d lost its value across the resize" i
  done;
  Alcotest.(check int) "a met request allocates nothing" 0
    (words_during (fun () -> Int_table.reserve t 3000));
  Alcotest.(check int) "a smaller request does not shrink the table" 0
    (words_during (fun () -> Int_table.reserve t 150));
  Alcotest.(check int) "reserved keys insert without growing" 0
    (words_during (fun () ->
         for i = 100 to 2999 do
           Int_table.set t (key i) (i + 1)
         done));
  let sum = ref 0 in
  Int_table.iter (fun k v -> if v = (k / 0x10001) + 1 then incr sum) t;
  Alcotest.(check int) "every binding intact" 3000 !sum;
  (* The same inserts into a table left at its initial size grow it, so
     the reads above do see a resize. *)
  let u = Int_table.create () in
  Alcotest.(check bool) "an unreserved table grows" true
    (words_during (fun () ->
         for i = 0 to 2999 do
           Int_table.set u (key i) (i + 1)
         done)
    > 0)

(* --- Stats --- *)

let feq msg expected actual = Alcotest.(check (float 1e-9)) msg expected actual

let test_stats_basic () =
  feq "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  feq "mean empty" 0.0 (Stats.mean [||]);
  feq "median odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  feq "median even" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  feq "p0 is min" 1.0 (Stats.percentile [| 3.0; 1.0; 2.0 |] 0.0);
  feq "p100 is max" 3.0 (Stats.percentile [| 3.0; 1.0; 2.0 |] 100.0)

(* The least-squares slope of log y on log n: exact on a pure power law. *)
let test_power_exponent () =
  let series e = Array.map (fun n -> (n, 3.0 *. (float_of_int n ** e))) [| 16; 64; 256; 1024 |] in
  feq "sqrt" 0.5 (Stats.Growth.power_exponent (series 0.5));
  feq "linear" 1.0 (Stats.Growth.power_exponent (series 1.0));
  feq "constant" 0.0 (Stats.Growth.power_exponent (series 0.0))

let test_binomial_tail () =
  feq "tail at 0 is 1" 1.0 (Stats.binomial_tail ~trials:10 ~p:0.3 ~at_least:0);
  feq "tail beyond trials is 0" 0.0 (Stats.binomial_tail ~trials:10 ~p:0.3 ~at_least:11);
  (* P(Bin(2, 1/2) >= 1) = 3/4 *)
  Alcotest.(check (float 1e-9)) "exact small case" 0.75
    (Stats.binomial_tail ~trials:2 ~p:0.5 ~at_least:1);
  (* P(Bin(4, 1/2) >= 2) = 11/16 *)
  Alcotest.(check (float 1e-9)) "exact Bin(4)" (11.0 /. 16.0)
    (Stats.binomial_tail ~trials:4 ~p:0.5 ~at_least:2)

let test_growth_classify () =
  let power points = Stats.Growth.classify points in
  let mk f = Array.of_list (List.map (fun n -> (n, f n)) [ 64; 128; 256; 512; 1024 ]) in
  (match power (mk (fun _ -> 5.0)) with
  | Stats.Growth.Constant -> ()
  | g -> Alcotest.failf "constant misclassified as %s" (Stats.Growth.to_string g));
  (match power (mk (fun n -> float_of_int n)) with
  | Stats.Growth.Power e when e > 0.9 && e < 1.1 -> ()
  | g -> Alcotest.failf "linear misclassified as %s" (Stats.Growth.to_string g));
  (match power (mk (fun n -> sqrt (float_of_int n))) with
  | Stats.Growth.Power e when e > 0.4 && e < 0.6 -> ()
  | g -> Alcotest.failf "sqrt misclassified as %s" (Stats.Growth.to_string g));
  match power (mk (fun n -> let l = log (float_of_int n) in l *. l)) with
  | Stats.Growth.Polylog -> ()
  | g -> Alcotest.failf "log^2 misclassified as %s" (Stats.Growth.to_string g)

(* --- Histogram --- *)

let test_histogram_basic () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty total" 0 (Histogram.total h);
  Alcotest.(check (option int)) "empty max" None (Histogram.max_value h);
  Histogram.add h 4;
  Histogram.add h 4;
  Histogram.add_many h 7 3;
  Alcotest.(check int) "total" 5 (Histogram.total h);
  Alcotest.(check int) "count 4" 2 (Histogram.count h 4);
  Alcotest.(check int) "count missing" 0 (Histogram.count h 5);
  Alcotest.(check (option int)) "max value" (Some 7) (Histogram.max_value h);
  Alcotest.(check int) "count 7" 3 (Histogram.count h 7);
  Alcotest.check_raises "negative rejected" (Invalid_argument "Histogram.add: negative value")
    (fun () -> Histogram.add h (-1))

let test_histogram_percentile () =
  let h = Histogram.create () in
  Histogram.add_many h 1 90;
  Histogram.add_many h 10 10;
  Alcotest.(check int) "p50" 1 (Histogram.percentile h 50.0);
  Alcotest.(check int) "p95" 10 (Histogram.percentile h 95.0);
  Alcotest.(check int) "p100" 10 (Histogram.percentile h 100.0);
  let empty = Histogram.create () in
  Alcotest.check_raises "empty percentile" (Invalid_argument "Histogram.percentile: empty")
    (fun () -> ignore (Histogram.percentile empty 50.0))

let test_histogram_percentile_opt () =
  let h = Histogram.create () in
  Histogram.add_many h 1 90;
  Histogram.add_many h 10 10;
  Alcotest.(check (option int)) "agrees with percentile" (Some 1)
    (Histogram.percentile_opt h 50.0);
  Alcotest.(check (option int)) "p95" (Some 10) (Histogram.percentile_opt h 95.0);
  (* The degenerate case percentile crashes on: total instead of raise. *)
  let empty = Histogram.create () in
  Alcotest.(check (option int)) "empty is None" None (Histogram.percentile_opt empty 50.0);
  Alcotest.check_raises "out-of-range p still rejected"
    (Invalid_argument "Histogram.percentile_opt: p out of range") (fun () ->
      ignore (Histogram.percentile_opt empty 101.0))

(* --- Table --- *)

let test_table_markdown () =
  let t = Table.create ~columns:[ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "longer"; "23" ];
  let md = Table.to_markdown t in
  Alcotest.(check bool) "has header" true
    (String.length md > 0 && String.sub md 0 1 = "|");
  Alcotest.(check bool) "contains row" true
    (String.split_on_char '\n' md |> List.exists (fun l -> String.length l > 0 && l.[0] = '|'
      && String.length l > 2 && String.index_opt l 'x' <> None))

let test_table_arity () =
  let t = Table.create ~columns:[ ("a", Table.Left); ("b", Table.Left) ] in
  Alcotest.check_raises "arity mismatch" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

let test_table_csv () =
  let t = Table.create ~columns:[ ("a", Table.Left); ("b", Table.Left) ] in
  Table.add_row t [ "x,y"; "plain" ];
  let csv = Table.to_csv t in
  Alcotest.(check string) "csv escaping" "a,b\n\"x,y\",plain\n" csv

(* --- Plurality --- *)

(* Eight voter slots, [0, 8). *)
let tally votes =
  let t = Plurality.create ~voters:8 in
  List.iter (fun (voter, v) -> Plurality.add t ~voter v) votes;
  t

let test_plurality_one_vote_per_sender () =
  let t = tally [ (1, "a"); (1, "b"); (1, "b"); (2, "b") ] in
  Alcotest.(check (option string)) "second votes of slot 1 ignored" (Some "a")
    (Plurality.winner t);
  Alcotest.(check int) "one vote each" 1 (Plurality.winner_votes t);
  Plurality.add t ~voter:3 "b";
  Alcotest.(check (option string)) "a new voter counts" (Some "b") (Plurality.winner t);
  Alcotest.(check int) "b's votes" 2 (Plurality.winner_votes t);
  List.iter
    (fun voter ->
      Alcotest.check_raises
        (Printf.sprintf "slot %d of 8 refused" voter)
        (Invalid_argument "Bitset: element out of range")
        (fun () -> Plurality.add t ~voter "c"))
    [ -1; 8 ];
  Alcotest.(check int) "refused slots counted nothing" 2 (Plurality.winner_votes t)

let test_plurality_ties () =
  let winner votes = Plurality.winner (tally votes) in
  Alcotest.(check (option string)) "b then a" (Some "a") (winner [ (1, "b"); (2, "a") ]);
  Alcotest.(check (option string)) "a then b" (Some "a") (winner [ (1, "a"); (2, "b") ]);
  Alcotest.(check (option string))
    "tie at two votes, prefix is smaller" (Some "ab")
    (winner [ (1, "b"); (2, "ab"); (3, "b"); (4, "ab"); (5, "c") ]);
  Alcotest.(check (option string))
    "most votes beats smaller" (Some "z")
    (winner [ (1, "z"); (2, "a"); (3, "z") ])

let test_plurality_empty () =
  List.iter
    (fun voters ->
      let t = Plurality.create ~voters in
      let what = Printf.sprintf "%d voters: " voters in
      Alcotest.(check (option string)) (what ^ "no winner") None (Plurality.winner t);
      Alcotest.(check string) (what ^ "default") "d" (Plurality.winner_or t ~default:"d");
      Alcotest.(check int) (what ^ "no votes") 0 (Plurality.winner_votes t))
    [ 0; 8 ];
  Alcotest.check_raises "no slot to vote from" (Invalid_argument "Bitset: element out of range")
    (fun () -> Plurality.add (Plurality.create ~voters:0) ~voter:0 "a");
  Alcotest.(check string) "winner over default" "a"
    (Plurality.winner_or (tally [ (0, "a") ]) ~default:"d")

let test_plurality_of_outputs () =
  let outputs = [| Some "x"; None; Some "y"; Some "y"; Some "x"; Some "x"; None |] in
  let of_outputs counted = Plurality.of_outputs outputs ~counted in
  Alcotest.(check (option string)) "all indices" (Some "x") (of_outputs (fun _ -> true));
  Alcotest.(check (option string)) "rejected indices skipped" (Some "y")
    (of_outputs (fun i -> i < 4));
  Alcotest.(check (option string)) "tie to the smallest" (Some "x") (of_outputs (fun i -> i < 5));
  Alcotest.(check (option string)) "only None counted" None (of_outputs (fun i -> i = 1));
  Alcotest.(check (option string)) "nothing counted" None (of_outputs (fun _ -> false))

(* Hashtbl_order reproduces the table's walk without the table: the
   order is a real [Hashtbl.create 8]'s. Lengths up to 100 cross its
   32- and 64-key resizes, and one scratch serves every case, shrinking
   and growing. *)
let order_scratch = Hashtbl_order.create ()

let prop_hashtbl_order =
  QCheck.Test.make ~name:"reversed_fold = a Hashtbl.create 8's fold, consed" ~count:300
    QCheck.(
      make
        ~print:(fun l -> String.concat " " (List.map string_of_int l))
        Gen.(int_range 1 100 >>= fun k -> list_repeat k (int_range (-1000) (1 lsl 20))))
    (fun l ->
      (* The distinct keys, added to the model in the order drawn. *)
      let h = Hashtbl.create 8 in
      let fresh key =
        let seen = Hashtbl.mem h key in
        if not seen then Hashtbl.add h key ();
        not seen
      in
      let keys = Array.of_list (List.filter fresh l) in
      let k = Array.length keys in
      let model = Hashtbl.fold (fun key () acc -> key :: acc) h [] in
      let order = Hashtbl_order.reversed_fold order_scratch keys k in
      List.init k (fun i -> keys.(order.(i))) = model)

let suites =
  [
    ( "stdx.intx",
      [
        Alcotest.test_case "ilog2" `Quick test_ilog2;
        Alcotest.test_case "ceil_log2" `Quick test_ceil_log2;
        Alcotest.test_case "isqrt" `Quick test_isqrt;
        Alcotest.test_case "pow/cdiv/clamp" `Quick test_pow_cdiv_clamp;
      ] );
    ( "stdx.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
        Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
        Alcotest.test_case "float range" `Quick test_prng_float_range;
        Alcotest.test_case "split independence" `Quick test_prng_split_independent;
        Alcotest.test_case "split_at purity" `Quick test_prng_split_at_distinct;
        Alcotest.test_case "bits masking" `Quick test_prng_bits;
        Alcotest.test_case "sampling w/o replacement" `Quick test_sample_without_replacement;
        Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
        Alcotest.test_case "chi-square uniformity" `Quick test_prng_chi_square;
      ] );
    ( "stdx.hash64",
      [
        Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
        Alcotest.test_case "length absorption" `Quick test_hash_length_matters;
        Alcotest.test_case "to_range" `Quick test_hash_to_range;
        Alcotest.test_case "add_ints" `Quick test_hash_add_ints;
        Alcotest.test_case "rough uniformity" `Quick test_hash_uniformity_rough;
      ] );
    ( "stdx.bitset",
      [
        Alcotest.test_case "basics" `Quick test_bitset_basic;
        Alcotest.test_case "set operations" `Quick test_bitset_set_ops;
        Alcotest.test_case "complement" `Quick test_bitset_complement;
        Alcotest.test_case "count_in" `Quick test_bitset_count_in;
        Alcotest.test_case "copy/clear" `Quick test_bitset_copy_clear;
        Alcotest.test_case "equal" `Quick test_bitset_equal;
      ] );
    ( "stdx.vec",
      [
        Alcotest.test_case "push/get/set" `Quick test_vec_push_get;
        Alcotest.test_case "clear reuses storage" `Quick test_vec_clear_reuse;
        Alcotest.test_case "iter sees appended" `Quick test_vec_iter_sees_mid_iteration_pushes;
        Alcotest.test_case "boxed int64 and float reads" `Quick test_vec_boxed_reads;
      ] );
    ("stdx.int_table", [ Alcotest.test_case "reserve" `Quick test_int_table_reserve ]);
    ("stdx.hashtbl_order", [ QCheck_alcotest.to_alcotest prop_hashtbl_order ]);
    ( "stdx.stats",
      [
        Alcotest.test_case "mean/median/percentile" `Quick test_stats_basic;
        Alcotest.test_case "power exponent" `Quick test_power_exponent;
        Alcotest.test_case "binomial tail" `Quick test_binomial_tail;
        Alcotest.test_case "growth classification" `Quick test_growth_classify;
      ] );
    ( "stdx.histogram",
      [
        Alcotest.test_case "basics" `Quick test_histogram_basic;
        Alcotest.test_case "percentile" `Quick test_histogram_percentile;
        Alcotest.test_case "percentile_opt" `Quick test_histogram_percentile_opt;
      ] );
    ( "stdx.table",
      [
        Alcotest.test_case "markdown" `Quick test_table_markdown;
        Alcotest.test_case "arity check" `Quick test_table_arity;
        Alcotest.test_case "csv escaping" `Quick test_table_csv;
      ] );
    ( "stdx.plurality",
      [
        Alcotest.test_case "one vote per sender" `Quick test_plurality_one_vote_per_sender;
        Alcotest.test_case "ties to the smallest value" `Quick test_plurality_ties;
        Alcotest.test_case "empty tally" `Quick test_plurality_empty;
        Alcotest.test_case "of_outputs" `Quick test_plurality_of_outputs;
      ] );
  ]
