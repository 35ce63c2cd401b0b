(* Order statistics for reported metrics. [median] and [percentile]
   interpolate linearly between order statistics (rank p/100·(n−1)),
   as {!Fba_stdx.Stats} does. [quartiles] follows Python's
   [statistics.quantiles(data, n=4)] (the default "exclusive" method),
   so the spread this benchmark reports is the one an outside check
   computes from the same values. *)

let median = Fba_stdx.Stats.median

let percentile = Fba_stdx.Stats.percentile

let quartiles a =
  let d = Array.copy a in
  Array.sort compare d;
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Quantile.quartiles: empty"
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      d.(j - 1) +. ((d.(j) -. d.(j - 1)) *. float_of_int delta /. 4.0)
    in
    (q 1, q 2, q 3)
  end
