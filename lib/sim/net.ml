open Fba_stdx

type spec =
  | Reliable
  | Drop of { rate : float }
  | Partition of { from_round : int; rounds : int }
  | Compose of spec list

let reason_loss = "net-loss"
let reason_partition = "net-partition"

(* Compiled runtime: one slot per condition kind. The loss condition
   owns a PRNG stream split at a fixed index from the
   scenario-seed-derived root, so every jobs/seed combination stays
   deterministic (each run instantiates its own state from the seed —
   nothing is shared across runs or domains). *)
type t = {
  trivial : bool;  (* no condition can interfere: the Reliable fast path *)
  n : int;
  drop : drop option;
  partition : partition option;
}

and drop = { rate : float; drop_rng : Prng.t }

and partition = { cut_from : int; cut_until : int (* exclusive *) }

let rec validate = function
  | Reliable -> ()
  | Drop { rate } ->
    if not (rate >= 0.0 && rate <= 1.0) then invalid_arg "Net: drop rate outside [0, 1]"
  | Partition { from_round; rounds } ->
    if from_round < 0 then invalid_arg "Net: partition start negative";
    if rounds < 0 then invalid_arg "Net: partition length negative"
  | Compose specs ->
    List.iter
      (fun s ->
        (match s with
        | Compose _ -> invalid_arg "Net: nested Compose"
        | _ -> ());
        validate s)
      specs

(* The drop stream is split at index 0 of the root. *)
let instantiate spec ~n ~seed =
  validate spec;
  let state = { trivial = false; n; drop = None; partition = None } in
  let add state = function
    | Reliable -> state
    | Compose _ -> assert false (* rejected by validate *)
    | Drop { rate } ->
      if state.drop <> None then invalid_arg "Net: two Drop conditions";
      if rate = 0.0 then state
      else
        let root = Prng.create (Hash64.finish (Hash64.add_string (Hash64.init seed) "net")) in
        { state with drop = Some { rate; drop_rng = Prng.split_at root 0 } }
    | Partition { from_round; rounds } ->
      if state.partition <> None then invalid_arg "Net: two Partition conditions";
      if rounds = 0 then state
      else
        { state with
          partition = Some { cut_from = from_round; cut_until = from_round + rounds } }
  in
  let state =
    match spec with Compose specs -> List.fold_left add state specs | s -> add state s
  in
  { state with trivial = state.drop = None && state.partition = None }

let trivial t = t.trivial

type verdict = Pass | Lose of string

(* Bisection sides: ids [0, n/2) vs [n/2, n). *)
let side t id = if id < t.n / 2 then 0 else 1

let verdict t ~round ~src ~dst =
  if t.trivial then Pass
  else begin
    match t.partition with
    | Some { cut_from; cut_until }
      when round >= cut_from && round < cut_until && side t src <> side t dst ->
      Lose reason_partition
    | _ -> (
      match t.drop with
      | Some { rate; drop_rng } ->
        (* Exactly one draw per query, whatever the outcome: two nets
           with the same seed and rates p <= q then drop coupled
           subsets (u < p implies u < q), which is what the
           monotonicity property tests. *)
        if Prng.float drop_rng < rate then Lose reason_loss else Pass
      | None -> Pass)
  end
