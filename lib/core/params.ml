open Fba_stdx

type t = {
  n : int;
  seed : int64;
  d_i : int;
  d_h : int;
  d_j : int;
  gstring_bits : int;
  pull_filter : int;
  max_poll_attempts : int;
  repoll_timeout : int;
}

let check_d name n = function
  | Some d when d >= 1 && d <= n -> d
  | Some _ -> invalid_arg (Printf.sprintf "Params.make: %s out of range" name)
  | None -> assert false

let repoll_timeout = 8

let make ?d_i ?d_h ?d_j ?gstring_bits ?pull_filter ?(max_poll_attempts = 1) ~n ~seed () =
  if max_poll_attempts < 1 then invalid_arg "Params.make: max_poll_attempts < 1";
  if n < 4 then invalid_arg "Params.make: n must be at least 4";
  let log_n = Intx.ceil_log2 n in
  let dflt v d = match v with Some _ -> v | None -> Some (Intx.clamp ~lo:1 ~hi:n d) in
  let d_i = check_d "d_i" n (dflt d_i (2 * log_n)) in
  let d_j = check_d "d_j" n (dflt d_j (2 * log_n)) in
  let d_h = check_d "d_h" n (dflt d_h (max 9 (3 * log_n / 2))) in
  let gstring_bits =
    match gstring_bits with
    | Some b when b >= 1 -> b
    | Some _ -> invalid_arg "Params.make: gstring_bits must be positive"
    | None -> 8 * log_n
  in
  let pull_filter =
    match pull_filter with
    | Some f when f >= 1 -> f
    | Some _ -> invalid_arg "Params.make: pull_filter must be positive"
    | None -> max 4 (log_n * log_n)
  in
  { n; seed; d_i; d_h; d_j; gstring_bits; pull_filter; max_poll_attempts; repoll_timeout }

(* Smallest quorum size whose bad-majority probability, multiplied by
   the ~n quorums an execution touches, stays below the budget. Quorums
   are sampled without replacement in the protocol, so the binomial
   (with replacement) tail is a conservative upper bound. *)
let size_quorum ~n ~bad_fraction ~budget =
  let target = budget /. float_of_int n in
  let rec search d =
    if d >= n then n
    else begin
      let miss = Stats.binomial_tail ~trials:d ~p:bad_fraction ~at_least:((d / 2) + 1) in
      if miss <= target then d else search (d + 2)
    end
  in
  search 7

let make_for ?(per_run_miss = 0.05) ?gstring_bits ?pull_filter ~n ~seed ~byzantine_fraction
    ~knowledgeable_fraction () =
  if byzantine_fraction < 0.0 || byzantine_fraction >= 1.0 /. 3.0 then
    invalid_arg "Params.make_for: byzantine_fraction must be in [0, 1/3)";
  if knowledgeable_fraction <= 0.5 || knowledgeable_fraction > 1.0 then
    invalid_arg "Params.make_for: knowledgeable_fraction must be in (1/2, 1]";
  let d_i = size_quorum ~n ~bad_fraction:(1.0 -. knowledgeable_fraction) ~budget:per_run_miss in
  let d_hj = size_quorum ~n ~bad_fraction:byzantine_fraction ~budget:per_run_miss in
  make ~d_i ~d_h:d_hj ~d_j:d_hj ?gstring_bits ?pull_filter ~n ~seed ()

let derive_sampler t tag d =
  let seed = Hash64.finish (Hash64.add_int (Hash64.init t.seed) tag) in
  Fba_samplers.Sampler.create ~seed ~n:t.n ~d

let sampler_i t = derive_sampler t 1 t.d_i
let sampler_h t = derive_sampler t 2 t.d_h
let sampler_j t = derive_sampler t 3 t.d_j

let majority_i t = (t.d_i / 2) + 1
let majority_h t = (t.d_h / 2) + 1
let majority_j t = (t.d_j / 2) + 1

let quiet_limit t = if t.max_poll_attempts > 1 then t.repoll_timeout + 2 else 3

let id_bits t = Intx.ceil_log2 t.n

let label_bits = 64
