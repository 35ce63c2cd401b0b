open Fba_stdx

type t = {
  n : int;
  m : int;
  levels : int;
  groups : int;
  committees : int array array array;  (* level -> index -> members, drawn once *)
  by_node : (int * int) list array;  (* node -> committee coordinates *)
}

let committee_key ~level ~index = Int64.of_int ((level * 0x100000) + index)

let build ~n ~seed ~group_size ~committee_size =
  if n < 1 then invalid_arg "Committee_tree.build: n < 1";
  if group_size < 1 || committee_size < 1 then
    invalid_arg "Committee_tree.build: non-positive sizes";
  let m = Intx.clamp ~lo:1 ~hi:n committee_size in
  let target_groups = max 1 (n / group_size) in
  let levels = if target_groups <= 1 then 0 else Intx.ilog2 target_groups in
  let groups = 1 lsl levels in
  let sampler =
    Fba_samplers.Sampler.create
      ~seed:(Hash64.finish (Hash64.add_int (Hash64.init seed) 0x77ee))
      ~n ~d:m
  in
  let committees =
    Array.init (levels + 1) (fun level ->
        Array.init (1 lsl level) (fun index ->
            Fba_samplers.Sampler.quorum_xr sampler ~x:level ~r:(committee_key ~level ~index)))
  in
  let by_node = Array.make n [] in
  Array.iteri
    (fun level row ->
      Array.iteri
        (fun index members ->
          Array.iter (fun id -> by_node.(id) <- (level, index) :: by_node.(id)) members)
        row)
    committees;
  Array.iteri (fun i l -> by_node.(i) <- List.rev l) by_node;
  { n; m; levels; groups; committees; by_node }

let n t = t.n
let committee_size t = t.m
let levels t = t.levels
let group_count t = t.groups

let check_coords t ~level ~index =
  if level < 0 || level > t.levels || index < 0 || index >= 1 lsl level then
    invalid_arg "Committee_tree: committee coordinates out of range"

let committee t ~level ~index =
  check_coords t ~level ~index;
  t.committees.(level).(index)

let is_member t ~level ~index id = Array.exists (Int.equal id) (committee t ~level ~index)

let root t = t.committees.(0).(0)

let group_of t id =
  if id < 0 || id >= t.n then invalid_arg "Committee_tree.group_of: node out of range";
  id mod t.groups

let group_members t g =
  if g < 0 || g >= t.groups then invalid_arg "Committee_tree.group_members: out of range";
  let count = ((t.n - 1 - g) / t.groups) + 1 in
  Array.init count (fun i -> g + (i * t.groups))

let memberships t id =
  if id < 0 || id >= t.n then invalid_arg "Committee_tree.memberships: node out of range";
  t.by_node.(id)

let parent t ~level ~index =
  check_coords t ~level ~index;
  if level = 0 then None else Some (level - 1, index / 2)

let children t ~level ~index =
  check_coords t ~level ~index;
  if level >= t.levels then []
  else [ (level + 1, 2 * index); (level + 1, (2 * index) + 1) ]
