open Fba_stdx

type t = {
  n : int;
  corrupted : Bitset.t;
  sent_msgs : int array;
  sent_bits : int array;
  recv_msgs : int array;
  recv_bits : int array;
  decision : int option array;
  mutable rounds : int;
  mutable peak_mailbox_words : int;
}

let create ~n ~corrupted =
  {
    n;
    corrupted;
    sent_msgs = Array.make n 0;
    sent_bits = Array.make n 0;
    recv_msgs = Array.make n 0;
    recv_bits = Array.make n 0;
    decision = Array.make n None;
    rounds = 0;
    peak_mailbox_words = 0;
  }

let n t = t.n
let corrupted t = t.corrupted

let header_bits ~n = 8 + (2 * Intx.ceil_log2 (max 2 n))

let record_send t ~src ~dst ~bits =
  t.sent_msgs.(src) <- t.sent_msgs.(src) + 1;
  t.sent_bits.(src) <- t.sent_bits.(src) + bits;
  t.recv_msgs.(dst) <- t.recv_msgs.(dst) + 1;
  t.recv_bits.(dst) <- t.recv_bits.(dst) + bits

let record_decision t ~id ~round =
  match t.decision.(id) with
  | None -> t.decision.(id) <- Some round
  | Some _ -> ()

let set_rounds t r = t.rounds <- r
let rounds t = t.rounds

let set_peak_mailbox_words t w = t.peak_mailbox_words <- max t.peak_mailbox_words w
let peak_mailbox_words t = t.peak_mailbox_words

let sent_messages_of t i = t.sent_msgs.(i)
let sent_bits_of t i = t.sent_bits.(i)
let recv_messages_of t i = t.recv_msgs.(i)
let recv_bits_of t i = t.recv_bits.(i)

let sum_where t a ~only_correct =
  let acc = ref 0 in
  for i = 0 to t.n - 1 do
    if (not only_correct) || not (Bitset.mem t.corrupted i) then acc := !acc + a.(i)
  done;
  !acc

let total_bits_correct t = sum_where t t.sent_bits ~only_correct:true
let total_messages_correct t = sum_where t t.sent_msgs ~only_correct:true
let total_bits_all t = sum_where t t.sent_bits ~only_correct:false

let amortized_bits t = float_of_int (total_bits_correct t) /. float_of_int t.n

let max_where t a =
  let acc = ref 0 in
  for i = 0 to t.n - 1 do
    if not (Bitset.mem t.corrupted i) then acc := max !acc a.(i)
  done;
  !acc

let max_sent_bits_correct t = max_where t t.sent_bits
let max_recv_bits_correct t = max_where t t.recv_bits

let load_imbalance t =
  let correct = t.n - Bitset.cardinal t.corrupted in
  (* Degenerate cases return 0. rather than dividing: with no correct
     node (or no correct traffic at all) there is no mean load, and
     pretending the execution was "perfectly balanced" (1.0) would hide
     a fully corrupted or fully silent run in aggregated tables. *)
  if correct = 0 then 0.0
  else begin
    let total = ref 0 and peak = ref 0 in
    for i = 0 to t.n - 1 do
      if not (Bitset.mem t.corrupted i) then begin
        let load = t.sent_bits.(i) + t.recv_bits.(i) in
        total := !total + load;
        peak := max !peak load
      end
    done;
    if !total = 0 then 0.0
    else float_of_int !peak /. (float_of_int !total /. float_of_int correct)
  end

let decision_round t i = t.decision.(i)

let decided_count t =
  Array.fold_left (fun acc -> function Some _ -> acc + 1 | None -> acc) 0 t.decision

let max_decision_round_correct t =
  let latest = ref 0 and complete = ref true in
  for i = 0 to t.n - 1 do
    if not (Bitset.mem t.corrupted i) then begin
      match t.decision.(i) with
      | Some r -> latest := max !latest r
      | None -> complete := false
    end
  done;
  if !complete then Some !latest else None

let merge_phases first second =
  if first.n <> second.n then invalid_arg "Metrics.merge_phases: size mismatch";
  if not (Bitset.equal first.corrupted second.corrupted) then
    invalid_arg "Metrics.merge_phases: corruption sets differ";
  let add a b = Array.init first.n (fun i -> a.(i) + b.(i)) in
  {
    n = first.n;
    corrupted = first.corrupted;
    sent_msgs = add first.sent_msgs second.sent_msgs;
    sent_bits = add first.sent_bits second.sent_bits;
    recv_msgs = add first.recv_msgs second.recv_msgs;
    recv_bits = add first.recv_bits second.recv_bits;
    decision =
      Array.map (Option.map (fun r -> r + first.rounds)) second.decision;
    rounds = first.rounds + second.rounds;
    (* Phases run sequentially, so the process-wide peak is the larger
       of the two, not their sum. *)
    peak_mailbox_words = max first.peak_mailbox_words second.peak_mailbox_words;
  }
