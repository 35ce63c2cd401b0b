open Fba_stdx

type spec =
  | Reliable
  | Drop of { rate : float }
  | Crash of { at : int; fraction : float }
  | Partition of { from_round : int; rounds : int }
  | Jitter of { extra : int }
  | Compose of spec list

let reason_loss = "net-loss"
let reason_crash = "net-crash"
let reason_partition = "net-partition"

(* Compiled runtime: one slot per condition kind. Each randomized
   condition owns a dedicated PRNG stream split at a fixed index from
   the scenario-seed-derived root, so adding one condition never shifts
   another's draws and every jobs/seed combination stays deterministic
   (each run instantiates its own state from the seed — nothing is
   shared across runs or domains). *)
type t = {
  trivial : bool;  (* no condition can interfere: the Reliable fast path *)
  n : int;
  drop : drop option;
  crash : crash option;
  partition : partition option;
  jitter : jitter option;
}

and drop = { rate : float; drop_rng : Prng.t }

and crash = { crash_at : int; victims : Bitset.t }

and partition = { cut_from : int; cut_until : int (* exclusive *) }

and jitter = { extra : int; jitter_rng : Prng.t }

let rec validate = function
  | Reliable -> ()
  | Drop { rate } ->
    if not (rate >= 0.0 && rate <= 1.0) then invalid_arg "Net: drop rate outside [0, 1]"
  | Crash { at; fraction } ->
    if at < 0 then invalid_arg "Net: crash round negative";
    if not (fraction >= 0.0 && fraction <= 1.0) then
      invalid_arg "Net: crash fraction outside [0, 1]"
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
  | Jitter { extra } -> if extra < 0 then invalid_arg "Net: jitter extra negative"

let rec max_extra_delay = function
  | Reliable | Drop _ | Crash _ | Partition _ -> 0
  | Jitter { extra } -> extra
  | Compose specs -> List.fold_left (fun acc s -> max acc (max_extra_delay s)) 0 specs

(* Fixed split indices: 0 = drop stream, 1 = jitter stream, 2 = crash
   victim selection. *)
let instantiate spec ~n ~seed =
  validate spec;
  let root =
    lazy (Prng.create (Hash64.finish (Hash64.add_string (Hash64.init seed) "net")))
  in
  let state =
    { trivial = false; n; drop = None; crash = None; partition = None; jitter = None }
  in
  let add state = function
    | Reliable -> state
    | Compose _ -> assert false (* rejected by validate *)
    | Drop { rate } ->
      if state.drop <> None then invalid_arg "Net: two Drop conditions";
      if rate = 0.0 then state
      else { state with drop = Some { rate; drop_rng = Prng.split_at (Lazy.force root) 0 } }
    | Crash { at; fraction } ->
      if state.crash <> None then invalid_arg "Net: two Crash conditions";
      let k = min n (int_of_float (ceil (fraction *. float_of_int n))) in
      if k = 0 then state
      else
        let rng = Prng.split_at (Lazy.force root) 2 in
        let victims = Bitset.of_array n (Prng.sample_without_replacement rng ~n ~k) in
        { state with crash = Some { crash_at = at; victims } }
    | Partition { from_round; rounds } ->
      if state.partition <> None then invalid_arg "Net: two Partition conditions";
      if rounds = 0 then state
      else
        { state with
          partition = Some { cut_from = from_round; cut_until = from_round + rounds } }
    | Jitter { extra } ->
      if state.jitter <> None then invalid_arg "Net: two Jitter conditions";
      if extra = 0 then state
      else { state with jitter = Some { extra; jitter_rng = Prng.split_at (Lazy.force root) 1 } }
  in
  let state =
    match spec with Compose specs -> List.fold_left add state specs | s -> add state s
  in
  { state with
    trivial = state.drop = None && state.crash = None && state.partition = None }

type verdict = Pass | Lose of string

(* Bisection sides: ids [0, n/2) vs [n/2, n). *)
let side t id = if id < t.n / 2 then 0 else 1

let verdict t ~round ~src ~dst =
  if t.trivial then Pass
  else begin
    match t.crash with
    | Some { crash_at; victims } when round >= crash_at && Bitset.mem victims dst ->
      Lose reason_crash
    | _ -> (
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
        | None -> Pass))
  end

let extra_delay t ~time:_ ~src:_ ~dst:_ =
  match t.jitter with
  | None -> 0
  | Some { extra; jitter_rng } -> Prng.int jitter_rng (extra + 1)

let crashed t = match t.crash with None -> None | Some { crash_at; victims } -> Some (crash_at, victims)
