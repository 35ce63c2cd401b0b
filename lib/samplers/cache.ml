(* Shared "not yet evaluated" sentinel for the per-string rows and the
   rid lane; compared physically, so a genuinely empty quorum
   (impossible: d >= 1) could never be confused with it anyway. *)
let unset : int array = [||]

type t = {
  sampler : Sampler.t;
  (* I/H-shaped quorums: [by_sid] indexes dense rows of per-x slots by
     string id, so a lookup is two array loads and no string hashing.
     J-shaped quorums: the label id itself is the index. Labels are
     drawn fresh per poll, so one rid almost always belongs to one
     poller [x], and [rid_x]/[rid_rows] resolve the quorum in two array
     loads with zero hashing. The rare adversarial reuse of a label
     across pollers falls back to [xr_rid], keyed [rid * n + x] (x < n,
     so keys never collide). *)
  mutable by_sid : int array array array;
  mutable rid_x : int array;  (* rid -> owning x, -1 = empty *)
  mutable rid_rows : int array array;
  xr_rid : (int, int array) Hashtbl.t;
}

let no_row : int array array = [||]

let create sampler =
  { sampler; by_sid = [||]; rid_x = [||]; rid_rows = [||]; xr_rid = Hashtbl.create 64 }

let sampler t = t.sampler

let[@inline] row_sid t ~sid =
  if sid >= Array.length t.by_sid then begin
    let grown = Array.make (max (sid + 1) (2 * Array.length t.by_sid)) no_row in
    Array.blit t.by_sid 0 grown 0 (Array.length t.by_sid);
    t.by_sid <- grown
  end;
  let r = t.by_sid.(sid) in
  if r != no_row then r
  else begin
    let r = Array.make (Sampler.n t.sampler) unset in
    t.by_sid.(sid) <- r;
    r
  end

(* The one membership scan: handlers test [pos >= 0], and those that
   record set membership by quorum position get the index from the
   same walk. Top-level recursion on purpose: an inner [let rec loop]
   would capture [a]/[y] in a fresh closure on every membership test.
   The [int] annotations matter as much: unannotated, the scan
   compiles polymorphic and pays a [caml_equal] call per slot
   (scripts/ci.sh fails the build if one comes back). *)
let rec pos_scan (a : int array) (y : int) i stop =
  if i >= stop then -1 else if Array.unsafe_get a i = y then i else pos_scan a y (i + 1) stop

let[@inline] pos_array a y = pos_scan a y 0 (Array.length a)

let[@inline] quorum_sid t ~sid ~s ~x =
  let row = row_sid t ~sid in
  let q = row.(x) in
  if q != unset then q
  else begin
    let q = Sampler.quorum_sx t.sampler ~s ~x in
    row.(x) <- q;
    q
  end

(* Membership caches the full quorum on a miss: protocol handlers test
   the same key many times, so one O(d)-hash evaluation up front beats
   repeated early-exit draws. The scan itself early-exits on [y]. *)
let[@inline] pos_sid t ~sid ~s ~x ~y = pos_array (quorum_sid t ~sid ~s ~x) y

let seed_sid_row t ~sid ~x q =
  let row = row_sid t ~sid in
  if row.(x) == unset then row.(x) <- q

let key_rid t ~x ~rid = (rid * Sampler.n t.sampler) + x

(* The cross-poller fallback: a label already owned by another poller
   keys its quorum by (x, rid) here. *)
let quorum_rid_tbl t ~x ~rid ~r =
  let key = key_rid t ~x ~rid in
  match Hashtbl.find t.xr_rid key with
  | q -> q
  | exception Not_found ->
    let q = Sampler.quorum_xr t.sampler ~x ~r in
    Hashtbl.add t.xr_rid key q;
    q

let quorum_rid_slow t ~x ~rid ~r =
  if rid >= Array.length t.rid_x then begin
    let cap = max (rid + 1) (max 1024 (2 * Array.length t.rid_x)) in
    let gx = Array.make cap (-1) and gq = Array.make cap unset in
    Array.blit t.rid_x 0 gx 0 (Array.length t.rid_x);
    Array.blit t.rid_rows 0 gq 0 (Array.length t.rid_rows);
    t.rid_x <- gx;
    t.rid_rows <- gq
  end;
  if t.rid_x.(rid) = -1 then begin
    let q = Sampler.quorum_xr t.sampler ~x ~r in
    t.rid_x.(rid) <- x;
    t.rid_rows.(rid) <- q;
    q
  end
  else quorum_rid_tbl t ~x ~rid ~r

let[@inline] quorum_rid t ~x ~rid ~r =
  if rid < Array.length t.rid_x && Array.unsafe_get t.rid_x rid = x then
    Array.unsafe_get t.rid_rows rid
  else quorum_rid_slow t ~x ~rid ~r

let[@inline] pos_rid t ~x ~rid ~r ~y = pos_array (quorum_rid t ~x ~rid ~r) y
