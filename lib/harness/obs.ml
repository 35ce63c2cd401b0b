open Fba_stdx

type observation = {
  n : int;
  rounds : int;
  decided_fraction : float;
  agreed_fraction : float;
  wrong_decisions : int;
  max_decision_round : int option;
  p95_decision_round : float;
  bits_per_node : float;
  msgs_per_node : float;
  total_bits_all : int;
  max_sent_bits : int;
  max_recv_bits : int;
  load_imbalance : float;
}

let rescale_time o ~normalized_rounds v =
  if o.rounds > 0 then v *. normalized_rounds /. float_of_int o.rounds else v

let of_metrics ~metrics ~outputs ~reference () =
  let n = Fba_sim.Metrics.n metrics in
  let corrupted = Fba_sim.Metrics.corrupted metrics in
  let reference =
    match reference with
    | Some _ -> reference
    | None -> Plurality.of_outputs outputs ~counted:(fun i -> not (Bitset.mem corrupted i))
  in
  let correct = ref 0 and decided = ref 0 and agreed = ref 0 and wrong = ref 0 in
  let decision_rounds = ref [] in
  for i = 0 to n - 1 do
    if not (Bitset.mem corrupted i) then begin
      incr correct;
      match outputs.(i) with
      | None -> ()
      | Some v ->
        incr decided;
        (match Fba_sim.Metrics.decision_round metrics i with
        | Some r -> decision_rounds := float_of_int r :: !decision_rounds
        | None -> ());
        if reference = Some v then incr agreed else incr wrong
    end
  done;
  (* [max 1] guards keep every fraction 0. (not NaN) when the correct
     set is empty — metrics over a fully corrupted execution must stay
     aggregatable. *)
  let correct_f = float_of_int (max 1 !correct) in
  let dr = Array.of_list !decision_rounds in
  {
    n;
    rounds = Fba_sim.Metrics.rounds metrics;
    decided_fraction = float_of_int !decided /. correct_f;
    agreed_fraction = float_of_int !agreed /. correct_f;
    wrong_decisions = !wrong;
    max_decision_round = Fba_sim.Metrics.max_decision_round_correct metrics;
    p95_decision_round = (if Array.length dr = 0 then 0.0 else Stats.percentile dr 95.0);
    bits_per_node = Fba_sim.Metrics.amortized_bits metrics;
    msgs_per_node =
      float_of_int (Fba_sim.Metrics.total_messages_correct metrics) /. float_of_int (max 1 n);
    total_bits_all = Fba_sim.Metrics.total_bits_all metrics;
    max_sent_bits = Fba_sim.Metrics.max_sent_bits_correct metrics;
    max_recv_bits = Fba_sim.Metrics.max_recv_bits_correct metrics;
    load_imbalance = Fba_sim.Metrics.load_imbalance metrics;
  }

type summary = {
  s_n : int;
  runs : int;
  mean_rounds : float;
  mean_bits_per_node : float;
  mean_max_sent : float;
  mean_imbalance : float;
  mean_decided : float;
  mean_agreed : float;
  total_wrong : int;
  mean_p95_decision : float;
  worst_decision_round : int option;
}

let aggregate = function
  | [] -> invalid_arg "Obs.aggregate: empty"
  | first :: _ as obs ->
    List.iter
      (fun o -> if o.n <> first.n then invalid_arg "Obs.aggregate: mixed system sizes")
      obs;
    let fmean f = Stats.mean (Array.of_list (List.map f obs)) in
    let worst =
      List.fold_left
        (fun acc o ->
          match (acc, o.max_decision_round) with
          | Some a, Some b -> Some (max a b)
          | _ -> None)
        (Some 0) obs
    in
    {
      s_n = first.n;
      runs = List.length obs;
      mean_rounds = fmean (fun o -> float_of_int o.rounds);
      mean_bits_per_node = fmean (fun o -> o.bits_per_node);
      mean_max_sent = fmean (fun o -> float_of_int o.max_sent_bits);
      mean_imbalance = fmean (fun o -> o.load_imbalance);
      mean_decided = fmean (fun o -> o.decided_fraction);
      mean_agreed = fmean (fun o -> o.agreed_fraction);
      total_wrong = List.fold_left (fun acc o -> acc + o.wrong_decisions) 0 obs;
      mean_p95_decision = fmean (fun o -> o.p95_decision_round);
      worst_decision_round = worst;
    }
