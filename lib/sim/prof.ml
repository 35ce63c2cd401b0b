(* Opt-in run profiler: per-(round, slot) wall-clock and allocation
   attribution over a single engine run.

   The design mirrors [?events]: engines take an optional [?prof], and
   every instrumentation site is guarded on the option so a disabled
   run does no extra work and no extra allocation (the perf gate is
   measured with profiling off and must stay within its tolerances).

   Accounting is a single running cursor over integer snapshots: each
   attribution point takes one (wall ns, allocated words) snapshot and
   charges the delta since the previous snapshot to exactly one
   (round, slot) cell. Because consecutive snapshots partition the
   timeline, the integer cell deltas telescope and [check] can insist
   that the per-cell matrix sums *exactly* to the run totals — any
   double-charge, missed attribution or indexing bug breaks the
   identity (the same contract as the per-phase bit accounting of
   `fba trace`).

   Slots are the protocol's message tags ([Protocol.S.msg_tags] — for
   AER these are precisely the Compiled dispatch jump-table indices)
   plus one trailing "engine" slot that absorbs everything outside a
   delivery handler: round bookkeeping, sends, adversary calls, GC
   time, the profiler's own snapshots. *)

(* Total allocated words so far. The floats Gc reports are exact
   integer word counts (< 2^53 for any feasible run), so the int
   conversion is lossless and deltas sum exactly. quick_stat allocates
   a small record per call; that self-cost lands in whichever cell is
   being charged, which keeps the accounting identity intact. *)
let words_now () =
  let s = Gc.quick_stat () in
  int_of_float (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)

type t = {
  mutable slot_names : string array;  (* protocol tags + trailing "engine" *)
  mutable n_slots : int;
  (* Cell matrices, round-major: index = round * n_slots + slot. Grown
     geometrically, and only from [round] (rounds advance monotonically),
     so the delivery-path [enter]/[leave] never allocate. *)
  mutable wall : int array;  (* ns *)
  mutable alloc : int array;  (* words *)
  mutable hits : int array;
  mutable cap_rounds : int;
  mutable max_round : int;
  mutable cur_round : int;
  mutable last_ns : int;
  mutable last_words : int;
  mutable start_ns : int;
  mutable start_words : int;
  mutable total_ns : int;
  mutable total_words : int;
  mutable running : bool;
  mutable started : bool;  (* a run completed (or is underway) *)
  mutable peak_mailbox_words : int;  (* delivery-plane high-water gauge *)
}

let create () =
  {
    slot_names = [| "engine" |];
    n_slots = 1;
    wall = [||];
    alloc = [||];
    hits = [||];
    cap_rounds = 0;
    max_round = 0;
    cur_round = 0;
    last_ns = 0;
    last_words = 0;
    start_ns = 0;
    start_words = 0;
    total_ns = 0;
    total_words = 0;
    running = false;
    started = false;
    peak_mailbox_words = 0;
  }

let engine_slot t = t.n_slots - 1

let ensure_rounds t r =
  if r >= t.cap_rounds then begin
    let cap = max (r + 1) (max 16 (2 * t.cap_rounds)) in
    let grow a =
      let b = Array.make (cap * t.n_slots) 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.wall <- grow t.wall;
    t.alloc <- grow t.alloc;
    t.hits <- grow t.hits;
    t.cap_rounds <- cap
  end

(* Engines call this once per run, before any instrumentation, with
   the protocol's tag names. Restarting resets all cells, so one [t]
   profiles exactly the most recent run. *)
let start t ~tags =
  t.slot_names <- Array.append tags [| "engine" |];
  t.n_slots <- Array.length t.slot_names;
  t.wall <- [||];
  t.alloc <- [||];
  t.hits <- [||];
  t.cap_rounds <- 0;
  t.max_round <- 0;
  t.cur_round <- 0;
  ensure_rounds t 0;
  t.running <- true;
  t.started <- true;
  t.peak_mailbox_words <- 0;
  t.total_ns <- 0;
  t.total_words <- 0;
  t.start_ns <- Fba_stdx.Monotonic.now_ns ();
  t.start_words <- words_now ();
  t.last_ns <- t.start_ns;
  t.last_words <- t.start_words

(* Charge the elapsed (wall, alloc) since the previous snapshot to
   cell (cur_round, slot) and advance the cursor. *)
let charge t ~slot =
  let ns = Fba_stdx.Monotonic.now_ns () and words = words_now () in
  let cell = (t.cur_round * t.n_slots) + slot in
  t.wall.(cell) <- t.wall.(cell) + (ns - t.last_ns);
  t.alloc.(cell) <- t.alloc.(cell) + (words - t.last_words);
  t.last_ns <- ns;
  t.last_words <- words

let round t r =
  if t.running then begin
    charge t ~slot:(engine_slot t);
    ensure_rounds t r;
    t.cur_round <- r;
    if r > t.max_round then t.max_round <- r
  end

let enter t = if t.running then charge t ~slot:(engine_slot t)

let leave t ~tag =
  if t.running then begin
    charge t ~slot:tag;
    t.hits.((t.cur_round * t.n_slots) + tag) <- t.hits.((t.cur_round * t.n_slots) + tag) + 1
  end

let stop t =
  if t.running then begin
    charge t ~slot:(engine_slot t);
    t.total_ns <- t.last_ns - t.start_ns;
    t.total_words <- t.last_words - t.start_words;
    t.running <- false
  end

(* --- Read-side accessors (after [stop]) --- *)

let started t = t.started
let rounds t = if t.started then t.max_round + 1 else 0
let slots t = t.n_slots
let slot_name t i = t.slot_names.(i)

let cell t a ~round ~slot =
  if round > t.max_round || round < 0 then 0 else a.((round * t.n_slots) + slot)

let wall t ~round ~slot = cell t t.wall ~round ~slot
let alloc t ~round ~slot = cell t t.alloc ~round ~slot
let hits t ~round ~slot = cell t t.hits ~round ~slot

let sum_slot t a slot =
  let acc = ref 0 in
  for r = 0 to t.max_round do
    acc := !acc + a.((r * t.n_slots) + slot)
  done;
  !acc

let slot_wall t slot = sum_slot t t.wall slot
let slot_alloc t slot = sum_slot t t.alloc slot
let slot_hits t slot = sum_slot t t.hits slot

let sum_round t a r =
  let acc = ref 0 in
  for s = 0 to t.n_slots - 1 do
    acc := !acc + a.((r * t.n_slots) + s)
  done;
  !acc

let round_wall t r = sum_round t t.wall r
let round_alloc t r = sum_round t t.alloc r

let total_wall_ns t = t.total_ns
let total_alloc_words t = t.total_words

(* Gauge, not a cursor cell: set once by the engine at run end, so it
   deliberately stays outside the [check] accounting identity. *)
let note_peak_mailbox_words t w = t.peak_mailbox_words <- max t.peak_mailbox_words w
let peak_mailbox_words t = t.peak_mailbox_words

(* The accounting identity: every cell delta was charged between two
   consecutive snapshots, so the matrix must sum exactly — in integer
   nanoseconds and integer words — to the run totals. *)
let check t =
  let w = ref 0 and a = ref 0 in
  for r = 0 to t.max_round do
    w := !w + round_wall t r;
    a := !a + round_alloc t r
  done;
  !w = t.total_ns && !a = t.total_words
