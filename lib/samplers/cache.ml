open Fba_stdx

(* Shared "not yet evaluated" sentinel for the per-string rows; compared
   physically, so a genuinely empty quorum (impossible: d >= 1) could
   never be confused with it anyway. *)
let unset : int array = [||]

type t = {
  mutable sampler : Sampler.t;
  (* Optional string -> interned-id resolver (non-registering). When
     present, the dense sid-indexed rows below are the primary store
     and the string table only holds strings the interner has never
     seen (adversary probing); without it, the string table is primary
     and [by_sid] mirrors it, as before the interned-id port. *)
  mutable find : (string -> int) option;
  (* I/H-shaped quorums for strings outside the interner (or all
     strings when [find] is absent): one dense row of per-x slots per
     string. A lookup is a string-hash plus an array index. *)
  sx : (string, int array array) Hashtbl.t;
  (* J-shaped quorums: open-addressing int64 table keyed by
     [salt.(x) lxor r]. The salt is a finished per-x hash, so keys are
     uniform; a cross-key collision needs a 64-bit birthday hit over
     the ~10^4 labels of a run (p < 1e-11), far below the sampler
     failure probabilities the simulator is already accepting. *)
  xr : int array I64_table.t;
  mutable salt : int64 array;
  (* Optional flat J-quorum store filled by [precompute_xr]: quorum i
     occupies [flat_xr.(i*d .. i*d + d - 1)]; [xr_off] maps keys to i.
     Membership tests and iteration read the slab in place. *)
  mutable flat_xr : int array;
  mutable flat_count : int;
  xr_off : int I64_table.t;
  (* Interned-id keyings. [by_sid] indexes dense rows by string id — a
     lookup is two array loads, no string hashing at all. For J-quorums
     the label id itself is the index: labels are drawn fresh per poll,
     so one rid almost always belongs to one poller [x] and
     [rid_x]/[rid_rows] resolve the quorum in two array loads with
     zero hashing; the rare adversarial reuse of a label across
     pollers falls back to [xr_rid], the legacy (x, rid)-keyed table,
     keyed [rid * n + x] (x < n, so keys never collide).
     All keyings share the quorum arrays, so answers are identical
     whichever one a caller uses. *)
  mutable by_sid : int array array array;
  mutable rid_x : int array;  (* rid -> owning x, -1 = empty *)
  mutable rid_rows : int array array;
  xr_rid : (int, int array) Hashtbl.t;
}

let no_row : int array array = [||]

let create ?find sampler =
  {
    sampler;
    find;
    sx = Hashtbl.create 64;
    xr = I64_table.create ();
    salt = Array.init (Sampler.n sampler) (fun x -> Sampler.key_xr sampler ~x ~r:0L);
    flat_xr = [||];
    flat_count = 0;
    xr_off = I64_table.create ();
    by_sid = [||];
    rid_x = [||];
    rid_rows = [||];
    xr_rid = Hashtbl.create 64;
  }

let sampler t = t.sampler

(* Epoch reset: rebind to the next instance's sampler and drop every
   memoized quorum while keeping the tables' storage warm. The dense
   rows are refilled with their physical sentinels, so nothing a stale
   row held can be mistaken for a fresh evaluation. *)
let reset ?find t ~sampler =
  t.sampler <- sampler;
  (match find with Some _ -> t.find <- find | None -> ());
  let n = Sampler.n sampler in
  if Array.length t.salt <> n then
    t.salt <- Array.init n (fun x -> Sampler.key_xr sampler ~x ~r:0L)
  else
    for x = 0 to n - 1 do
      t.salt.(x) <- Sampler.key_xr sampler ~x ~r:0L
    done;
  Hashtbl.clear t.sx;
  I64_table.clear t.xr;
  t.flat_count <- 0;
  I64_table.clear t.xr_off;
  Array.fill t.by_sid 0 (Array.length t.by_sid) no_row;
  Array.fill t.rid_x 0 (Array.length t.rid_x) (-1);
  Array.fill t.rid_rows 0 (Array.length t.rid_rows) unset;
  Hashtbl.clear t.xr_rid

let key_xr t ~x ~r = Int64.logxor t.salt.(x) r

let string_row t s =
  match Hashtbl.find t.sx s with
  | row -> row
  | exception Not_found ->
    let row = Array.make (Sampler.n t.sampler) unset in
    Hashtbl.add t.sx s row;
    row

(* The sid view. With a resolver the row is allocated here (sid-primary
   store); without one it is the very same array the string table uses,
   so the two views can never disagree. [s] is only read on a cold sid
   of a resolver-less cache. *)
let[@inline] row_sid t ~sid ~s =
  if sid >= Array.length t.by_sid then begin
    let grown = Array.make (max (sid + 1) (2 * Array.length t.by_sid)) no_row in
    Array.blit t.by_sid 0 grown 0 (Array.length t.by_sid);
    t.by_sid <- grown
  end;
  let r = t.by_sid.(sid) in
  if r != no_row then r
  else begin
    let r =
      match t.find with
      | Some _ -> Array.make (Sampler.n t.sampler) unset
      | None -> string_row t s
    in
    t.by_sid.(sid) <- r;
    r
  end

(* String-keyed entry point: route through the sid store whenever the
   interner knows the string, keeping the string table cold. A string
   that gets interned *after* being cached here ends up with two rows;
   both fill lazily from the same sampler, so they hold identical
   values and only duplicate storage, never answers. *)
let row t s =
  match t.find with
  | None -> string_row t s
  | Some f ->
    let sid = f s in
    if sid >= 0 then row_sid t ~sid ~s else string_row t s

let quorum_sx t ~s ~x =
  let row = row t s in
  let q = row.(x) in
  if q != unset then q
  else begin
    let q = Sampler.quorum_sx t.sampler ~s ~x in
    row.(x) <- q;
    q
  end

let quorum_xr t ~x ~r =
  let key = key_xr t ~x ~r in
  match I64_table.get t.xr key with
  | q -> q
  | exception Not_found ->
    let d = Sampler.d t.sampler in
    let q =
      match I64_table.get t.xr_off key with
      | i -> Array.sub t.flat_xr (i * d) d
      | exception Not_found -> Sampler.quorum_xr t.sampler ~x ~r
    in
    I64_table.set t.xr key q;
    q

(* Top-level recursion on purpose: an inner [let rec loop] would
   capture [a]/[y] in a fresh closure on every membership test. The
   [int] annotations matter as much: unannotated, both scans compile
   polymorphic and pay a [caml_equal] call per slot (scripts/ci.sh
   fails the build if one comes back). *)
let rec mem_scan (a : int array) (y : int) i stop =
  i < stop && (Array.unsafe_get a i = y || mem_scan a y (i + 1) stop)

let[@inline] mem_array a y = mem_scan a y 0 (Array.length a)

(* Position-returning scan: handlers that record set membership by
   quorum position get the index from the same walk the verification
   already pays for. *)
let rec pos_scan (a : int array) (y : int) i stop =
  if i >= stop then -1 else if Array.unsafe_get a i = y then i else pos_scan a y (i + 1) stop

let[@inline] pos_array a y = pos_scan a y 0 (Array.length a)

(* Membership caches the full quorum on a miss: protocol handlers test
   the same key many times, so one O(d)-hash evaluation up front beats
   repeated early-exit draws. The scan itself early-exits on [y]. *)
let mem_sx t ~s ~x ~y = mem_array (quorum_sx t ~s ~x) y

let[@inline] quorum_sid t ~sid ~s ~x =
  let row = row_sid t ~sid ~s in
  let q = row.(x) in
  if q != unset then q
  else begin
    let q = Sampler.quorum_sx t.sampler ~s ~x in
    row.(x) <- q;
    q
  end

let[@inline] mem_sid t ~sid ~s ~x ~y = mem_array (quorum_sid t ~sid ~s ~x) y

let[@inline] pos_sid t ~sid ~s ~x ~y = pos_array (quorum_sid t ~sid ~s ~x) y

let seed_sid_row t ~sid ~s ~x q =
  let row = row_sid t ~sid ~s in
  if row.(x) == unset then row.(x) <- q

let key_rid t ~x ~rid = (rid * Sampler.n t.sampler) + x

(* Legacy (x, rid)-keyed path, now only the fallback for labels reused
   across pollers (and the oracle the rid-dense index is checked
   against in tests). *)
let quorum_rid_tbl t ~x ~rid ~r =
  let key = key_rid t ~x ~rid in
  match Hashtbl.find t.xr_rid key with
  | q -> q
  | exception Not_found ->
    let q = quorum_xr t ~x ~r in
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
    let q = quorum_xr t ~x ~r in
    t.rid_x.(rid) <- x;
    t.rid_rows.(rid) <- q;
    q
  end
  else quorum_rid_tbl t ~x ~rid ~r

let[@inline] quorum_rid t ~x ~rid ~r =
  if rid < Array.length t.rid_x && Array.unsafe_get t.rid_x rid = x then
    Array.unsafe_get t.rid_rows rid
  else quorum_rid_slow t ~x ~rid ~r

let[@inline] mem_rid t ~x ~rid ~r ~y = mem_array (quorum_rid t ~x ~rid ~r) y

let pos_rid t ~x ~rid ~r ~y = pos_array (quorum_rid t ~x ~rid ~r) y

let mem_flat t off ~y = mem_scan t.flat_xr y off (off + Sampler.d t.sampler)

let mem_xr t ~x ~r ~y =
  let key = key_xr t ~x ~r in
  match I64_table.get t.xr key with
  | q -> mem_array q y
  | exception Not_found -> (
    match I64_table.get t.xr_off key with
    | i -> mem_flat t (i * Sampler.d t.sampler) ~y
    | exception Not_found ->
      let q = Sampler.quorum_xr t.sampler ~x ~r in
      I64_table.set t.xr key q;
      mem_array q y)

let precompute_xr t pairs =
  let d = Sampler.d t.sampler in
  let fresh =
    List.filter
      (fun (x, r) ->
        let key = key_xr t ~x ~r in
        not (I64_table.mem t.xr_off key || I64_table.mem t.xr key))
      pairs
  in
  let need = (t.flat_count + List.length fresh) * d in
  if need > Array.length t.flat_xr then begin
    let grown = Array.make (max need (2 * Array.length t.flat_xr)) (-1) in
    Array.blit t.flat_xr 0 grown 0 (t.flat_count * d);
    t.flat_xr <- grown
  end;
  List.iter
    (fun (x, r) ->
      let key = key_xr t ~x ~r in
      (* [fresh] can list a key twice; only the first draw lands. *)
      if not (I64_table.mem t.xr_off key) then begin
        Sampler.quorum_into t.sampler (Sampler.key_xr t.sampler ~x ~r) t.flat_xr
          ~pos:(t.flat_count * d);
        I64_table.set t.xr_off key t.flat_count;
        t.flat_count <- t.flat_count + 1
      end)
    fresh

let precomputed_xr t = t.flat_count

let iter_xr t ~x ~r f =
  let key = key_xr t ~x ~r in
  match I64_table.get t.xr_off key with
  | i ->
    let d = Sampler.d t.sampler in
    let off = i * d in
    for j = off to off + d - 1 do
      f t.flat_xr.(j)
    done
  | exception Not_found -> Array.iter f (quorum_xr t ~x ~r)
