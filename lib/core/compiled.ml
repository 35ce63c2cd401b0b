open Fba_stdx
module Cache = Fba_samplers.Cache
module Sampler = Fba_samplers.Sampler

(* The compile step: everything about a run that is fixed once the
   scenario exists — who pushes to whom, what each packed tag costs on
   the wire — lowered into flat arrays before the first round, so the
   delivery path reads them with plain loads instead of re-deriving
   them through hash tables. The lazy caches stay behind it as the
   fallback for anything runtime-dependent (poll labels, adversarial
   strings) and as the oracle the table tests compare against. *)

type t = {
  n : int;
  intern : Intern.t;
  sid_mask : int;  (* the scenario layout's sid extraction mask *)
  (* Push fan-out in CSR form: node y sends its initial candidate to
     [push_tgt.(push_off.(y) .. push_off.(y+1) - 1)], targets in
     ascending order — exactly [Push_plan.targets], precomputed for
     every correct node in one pass per distinct initial string. *)
  push_off : int array;  (* length n + 1 *)
  push_tgt : int array;
  (* Wire-size tables: [bits m = tag_fixed.(tag m) + str_bits.(sid m)].
     [tag_fixed] folds the header and every non-string payload field
     (already constant per tag); [str_bits] is the 8*length of each
     interned string, extended on demand for strings interned after
     compilation (adversarial payloads). -1 marks invalid/unfilled. *)
  tag_fixed : int array;  (* 8 slots, indexed by packed tag *)
  mutable str_bits : int array;
}

let n t = t.n

(* [Intern.find] on every initial candidate: Scenario.make seeds the
   interner with gstring and all initials, so a miss is a caller error
   (a scenario this config does not belong to). *)
let sid_of intern s =
  let sid = Intern.find intern s in
  if sid < 0 then invalid_arg "Compiled.build: initial candidate not interned";
  sid

let build ~(scenario : Scenario.t) ~(qi : Cache.t) =
  let params = scenario.Scenario.params in
  let n = params.Params.n in
  let intern = scenario.Scenario.intern in
  let si = Cache.sampler qi in
  let d = Sampler.d si in
  (* Group correct nodes by initial sid (counting sort, sids are dense). *)
  let nsid = Intern.string_count intern in
  let node_sid = Array.make n (-1) and group_count = Array.make nsid 0 in
  for id = 0 to n - 1 do
    if Scenario.is_correct scenario id then begin
      let sid = sid_of intern scenario.Scenario.initial.(id) in
      node_sid.(id) <- sid;
      group_count.(sid) <- group_count.(sid) + 1
    end
  done;
  (* One pass per distinct pushed string: draw I(s, x) for every x
     once into a reused scratch row, collect (supporter -> x) edges,
     and donate rows that will be consulted at delivery time (those
     with at least one supporter) to the lazy cache, so the push
     phase's membership tests start warm without a single runtime
     draw. Rows nobody pushes through are dropped — precomputing every
     (sid, x) row would cost O(#strings * n * d) space for entries the
     run never touches. *)
  let scratch = Array.make d 0 and is_supp = Bytes.make n '\000' in
  let edge_y = Vec.create () and edge_x = Vec.create () in
  for sid = 0 to nsid - 1 do
    if group_count.(sid) > 0 then begin
      let s = Intern.string intern sid in
      for id = 0 to n - 1 do
        if node_sid.(id) = sid then Bytes.set is_supp id '\001'
      done;
      for x = 0 to n - 1 do
        Sampler.quorum_into si (Sampler.key_sx si ~s ~x) scratch ~pos:0;
        let any = ref false in
        for j = 0 to d - 1 do
          let y = Array.unsafe_get scratch j in
          if Bytes.get is_supp y <> '\000' then begin
            Vec.push edge_y y;
            Vec.push edge_x x;
            any := true
          end
        done;
        if !any then Cache.seed_sid_row qi ~sid ~x (Array.sub scratch 0 d)
      done;
      Bytes.fill is_supp 0 n '\000'
    end
  done;
  (* Counting sort of the edges by source node. Each y belongs to one
     sid group and its x loop ran ascending, so the stable fill keeps
     targets in ascending order per y — the order Push_plan produces. *)
  let push_off = Array.make (n + 1) 0 in
  for i = 0 to Vec.length edge_y - 1 do
    let y = Vec.get edge_y i in
    push_off.(y + 1) <- push_off.(y + 1) + 1
  done;
  for y = 0 to n - 1 do
    push_off.(y + 1) <- push_off.(y + 1) + push_off.(y)
  done;
  let push_tgt = Array.make (Vec.length edge_x) 0 in
  let next = Array.copy push_off in
  for i = 0 to Vec.length edge_y - 1 do
    let y = Vec.get edge_y i in
    push_tgt.(next.(y)) <- Vec.get edge_x i;
    next.(y) <- next.(y) + 1
  done;
  (* Wire-size tables: the wire rule itself (see compiled.mli). *)
  let id_bits = Params.id_bits params in
  let header = Fba_sim.Metrics.header_bits ~n in
  let tag_fixed = Array.make 8 (-1) in
  tag_fixed.(Msg.Packed.tag_push) <- header;
  tag_fixed.(Msg.Packed.tag_answer) <- header;
  tag_fixed.(Msg.Packed.tag_poll) <- header + Params.label_bits;
  tag_fixed.(Msg.Packed.tag_pull) <- header + Params.label_bits;
  tag_fixed.(Msg.Packed.tag_fw1) <- header + Params.label_bits + (2 * id_bits);
  tag_fixed.(Msg.Packed.tag_fw2) <- header + Params.label_bits + id_bits;
  let str_bits = Array.init nsid (fun sid -> 8 * String.length (Intern.string intern sid)) in
  {
    n;
    intern;
    sid_mask = scenario.Scenario.layout.Msg.Layout.sid_mask;
    push_off;
    push_tgt;
    tag_fixed;
    str_bits;
  }

let push_start t ~y = Array.unsafe_get t.push_off y
let push_stop t ~y = Array.unsafe_get t.push_off (y + 1)
let push_target t i = Array.unsafe_get t.push_tgt i

let push_targets t ~y =
  let lo = t.push_off.(y) in
  Array.sub t.push_tgt lo (t.push_off.(y + 1) - lo)

(* Cold path of [bits]: a string interned after compilation (packed by
   an adversary mid-run). Memoized like every other sid. *)
let str_bits_slow t sid =
  let len = Array.length t.str_bits in
  if sid >= len then begin
    let grown = Array.make (max (sid + 1) ((2 * len) + 1)) (-1) in
    Array.blit t.str_bits 0 grown 0 len;
    t.str_bits <- grown
  end;
  let v = 8 * String.length (Intern.string t.intern sid) in
  t.str_bits.(sid) <- v;
  v

let bits t p =
  let fixed = Array.unsafe_get t.tag_fixed (p land 7) in
  if fixed < 0 then invalid_arg "Compiled.bits: invalid tag";
  let sid = (p lsr 3) land t.sid_mask in
  let sb = if sid < Array.length t.str_bits then Array.unsafe_get t.str_bits sid else -1 in
  if sb >= 0 then fixed + sb else fixed + str_bits_slow t sid
