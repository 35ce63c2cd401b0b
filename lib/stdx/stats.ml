let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int n

let minimum a =
  if Array.length a = 0 then invalid_arg "Stats.minimum: empty";
  Array.fold_left min a.(0) a

let maximum a =
  if Array.length a = 0 then invalid_arg "Stats.maximum: empty";
  Array.fold_left max a.(0) a

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy a in
  Array.sort compare sorted;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let w = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. w)) +. (sorted.(hi) *. w)
  end

let median a = percentile a 50.0

let binomial_tail ~trials ~p ~at_least =
  if trials < 0 then invalid_arg "Stats.binomial_tail: negative trials";
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.binomial_tail: p out of range";
  if at_least <= 0 then 1.0
  else if at_least > trials then 0.0
  else if p = 0.0 then 0.0
  else if p = 1.0 then 1.0
  else begin
    let log_choose n k =
      let acc = ref 0.0 in
      for i = 1 to k do
        acc := !acc +. log (float_of_int (n - k + i)) -. log (float_of_int i)
      done;
      !acc
    in
    let acc = ref 0.0 in
    for k = at_least to trials do
      acc :=
        !acc
        +. exp
             (log_choose trials k
             +. (float_of_int k *. log p)
             +. (float_of_int (trials - k) *. log (1.0 -. p)))
    done;
    min 1.0 !acc
  end

type fit = { slope : float; intercept : float; r2 : float }

let linear_fit points =
  let n = Array.length points in
  if n < 2 then invalid_arg "Stats.linear_fit: need at least two points";
  let sx = ref 0.0 and sy = ref 0.0 and sxx = ref 0.0 and sxy = ref 0.0 in
  Array.iter
    (fun (x, y) ->
      sx := !sx +. x;
      sy := !sy +. y;
      sxx := !sxx +. (x *. x);
      sxy := !sxy +. (x *. y))
    points;
  let nf = float_of_int n in
  let denom = (nf *. !sxx) -. (!sx *. !sx) in
  if abs_float denom < 1e-12 then invalid_arg "Stats.linear_fit: degenerate x values";
  let slope = ((nf *. !sxy) -. (!sx *. !sy)) /. denom in
  let intercept = (!sy -. (slope *. !sx)) /. nf in
  let ymean = !sy /. nf in
  let ss_tot = ref 0.0 and ss_res = ref 0.0 in
  Array.iter
    (fun (x, y) ->
      let pred = intercept +. (slope *. x) in
      ss_tot := !ss_tot +. ((y -. ymean) *. (y -. ymean));
      ss_res := !ss_res +. ((y -. pred) *. (y -. pred)))
    points;
  let r2 = if !ss_tot < 1e-12 then 1.0 else 1.0 -. (!ss_res /. !ss_tot) in
  { slope; intercept; r2 }

module Growth = struct
  type t = Constant | Polylog | Power of float

  let log_points f points =
    Array.map (fun (n, y) -> (f (float_of_int n), log (max y 1e-9))) points

  let power_fit points = linear_fit (log_points log points)
  let polylog_fit points = linear_fit (log_points (fun x -> log (log x)) points)

  let power_exponent points = (power_fit points).slope

  let classify points =
    if Array.length points < 3 then invalid_arg "Growth.classify: need >= 3 sizes";
    let ys = Array.map snd points in
    let dynamic_range =
      let lo = max (minimum ys) 1e-9 in
      maximum ys /. lo
    in
    let pw = power_fit points in
    if pw.slope < 0.12 && dynamic_range < 2.0 then Constant
    else begin
      let pl = polylog_fit points in
      (* A genuinely polylog series keeps a moderate apparent power
         exponent over laptop-scale n (log^2 n fits n^0.37 over
         n=64..1024) but is fitted strictly better by the log-log-x
         regression, which is exactly linear for log^k n. *)
      if pw.slope < 0.48 && pl.r2 > pw.r2 then Polylog else Power pw.slope
    end

  let to_string = function
    | Constant -> "O(1)"
    | Polylog -> "polylog"
    | Power e -> Printf.sprintf "n^%.2f" e
end
