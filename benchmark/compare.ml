(* [compare BASE NEW]: one row per workload × end-to-end metric of two
   results.json files. A metric regressed when NEW's median is worse
   than BASE's by more than the bound; it is unresolved when either
   side's interquartile range, as a share of BASE's median, is wider
   than the bound — unless every NEW rep reads better than every BASE
   rep. Exact metrics (bits, rounds) report any move beyond the bound
   as changed, which counts as a regression, and so does a rise in the
   candidate streams screening rejected. *)

type verdict = Ok | Regressed | Unresolved | Changed

let verdict_name = function
  | Ok -> "ok"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"
  | Changed -> "changed"

type side = { med : float; q1 : float; q3 : float; per_rep : float list }

(* How much worse [fresh] is than [base], as a share of [base]. *)
let worse better ~base ~fresh =
  let d =
    if base = 0.0 then if fresh = base then 0.0 else Float.infinity
    else (fresh -. base) /. Float.abs base
  in
  match better with
  | Suite.Higher -> -.d
  | Lower -> d
  | Exact -> Float.abs d

let judge better ~bound b f =
  let rel x = if b.med = 0.0 then 0.0 else x /. Float.abs b.med in
  let spread = rel (Float.max (b.q3 -. b.q1) (f.q3 -. f.q1)) in
  let w = worse better ~base:b.med ~fresh:f.med in
  let all_better () =
    let better_than x y = worse better ~base:y ~fresh:x < 0.0 in
    b.per_rep <> [] && f.per_rep <> []
    && List.for_all (fun x -> List.for_all (fun y -> better_than x y) b.per_rep) f.per_rep
  in
  match better with
  | Suite.Exact -> if w > bound then Changed else Ok
  | _ ->
    if spread > bound && not (all_better ()) then Unresolved
    else if w > bound then Regressed
    else Ok

let side_of j =
  let num k = Option.bind (Json.member k j) Json.to_float in
  match (num "value", num "q1", num "q3") with
  | Some med, Some q1, Some q3 ->
    let per_rep =
      match Json.member "per_rep" j with
      | Some (Json.Arr l) -> List.filter_map Json.to_float l
      | _ -> []
    in
    Some { med; q1; q3; per_rep }
  | _ -> None

let load path =
  try Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Sys_error e | Json.Parse_error e ->
    Printf.eprintf "compare: %s: %s\n" path e;
    exit 2

let main ~base ~fresh =
  let b = load base and f = load fresh in
  let workloads j = match Json.member "workloads" j with Some (Json.Obj l) -> l | _ -> [] in
  let regressions = ref 0 in
  Printf.printf "%-15s %-18s %12s %10s %12s %10s %8s %6s  %s\n" "workload" "metric" "base"
    "base_iqr" "new" "new_iqr" "delta" "bound" "verdict";
  List.iter
    (fun (wname, bw) ->
      match List.assoc_opt wname (workloads f) with
      | None ->
        Printf.printf "%-15s missing from %s\n" wname fresh;
        incr regressions
      | Some fw ->
        let metrics j = Option.value ~default:Json.Null (Json.member "metrics" j) in
        List.iter
          (fun (m : Suite.metric) ->
            match
              ( Option.bind (Json.member m.Suite.name (metrics bw)) side_of,
                Option.bind (Json.member m.Suite.name (metrics fw)) side_of )
            with
            | Some bs, Some fs ->
              let v = judge m.Suite.better ~bound:m.Suite.bound bs fs in
              if v = Regressed || v = Changed then incr regressions;
              let delta = if bs.med = 0.0 then 0.0 else (fs.med -. bs.med) /. Float.abs bs.med in
              Printf.printf "%-15s %-18s %12.6g %10.4g %12.6g %10.4g %+7.2f%% %5.1f%%  %s\n" wname
                m.Suite.name bs.med (bs.q3 -. bs.q1) fs.med (fs.q3 -. fs.q1) (100.0 *. delta)
                (100.0 *. m.Suite.bound) (verdict_name v)
            | None, None -> ()
            | _ ->
              Printf.printf "%-15s %-18s missing on one side\n" wname m.Suite.name;
              incr regressions)
          Suite.e2e;
        let digest j = match Json.member "exec_digest" j with Some (Json.Str s) -> s | _ -> "?" in
        if digest bw <> digest fw then
          Printf.printf "%-15s exec_digest changed: %s -> %s\n" wname (digest bw) (digest fw);
        (* More rejected candidate streams on the same seed: more
           instances miss termination. *)
        let screened j =
          Option.value ~default:0.0 (Option.bind (Json.member "streams_screened_out" j) Json.to_float)
        in
        if screened fw > screened bw then begin
          Printf.printf "%-15s streams_screened_out rose: %g -> %g  regressed\n" wname (screened bw)
            (screened fw);
          incr regressions
        end)
    (workloads b);
  if !regressions > 0 then 1 else 0
