open Fba_stdx

(* --- The delivery plane: a chunked segment arena ---

   In-flight messages live in fixed-size segments threaded into
   chains. A drain recycles each segment through the arena's free list
   the moment its last message is handled, so sends emitted *by* those
   deliveries refill the very segments just vacated — peak footprint
   tracks the largest single round, not a sum of adjacent ones.

   Chains are single-owner and push-ordered; pushing into a chain that
   is currently being drained is forbidden (the engines never do: sync
   deliveries refill the next round's chain, async deliveries schedule
   into strictly-future calendar buckets). *)

module Seg = struct
  (* Two lanes, not three: the (src, dst) pair is fused into one word
     ([src lsl 31 lor dst] — node ids are < 2^31 by a huge margin; the
     packed plane's own ceiling is n = 2^18), so a stored message costs
     2 words where three parallel lanes would pay 3. At wide-tier
     populations the live burst is the footprint floor, and this is the
     one per-message constant the exact delivery order still lets us
     cut. *)
  type 'msg t = {
    sd : int array;  (* src lsl 31 lor dst *)
    mutable msgs : 'msg array;  (* [||] until the first push provides a filler *)
    mutable len : int;
    mutable next : 'msg t option;
  }

  let make cap = { sd = Array.make cap 0; msgs = [||]; len = 0; next = None }
end

module Arena = struct
  type 'msg t = {
    seg_cap : int;
    free : 'msg Seg.t Vec.t;
    mutable segs_created : int;  (* monotone: also the concurrent-demand high-water *)
  }

  let default_seg_cap = 1024

  let create ?(seg_cap = default_seg_cap) () =
    if seg_cap < 1 then invalid_arg "Batch.Arena.create: seg_cap < 1";
    { seg_cap; free = Vec.create (); segs_created = 0 }

  let seg_cap t = t.seg_cap

  let take t =
    if Vec.is_empty t.free then begin
      t.segs_created <- t.segs_created + 1;
      Seg.make t.seg_cap
    end
    else Vec.pop t.free

  let recycle t (s : 'msg Seg.t) =
    s.Seg.len <- 0;
    s.Seg.next <- None;
    Vec.push t.free s

  let free_segments t = Vec.length t.free

  (* Two lanes of [seg_cap] slots per segment (fused src|dst + msg);
     [segs_created] never shrinks (recycled segments are retained), so
     this is both the current footprint and the peak concurrent
     demand. *)
  let peak_words t = 2 * t.seg_cap * t.segs_created
end

module Chain = struct
  type 'msg t = {
    arena : 'msg Arena.t;
    mutable head : 'msg Seg.t option;
    mutable tail : 'msg Seg.t option;
    mutable total : int;
  }

  let create arena = { arena; head = None; tail = None; total = 0 }

  let length t = t.total

  let is_empty t = t.total = 0

  let push t ~src ~dst msg =
    if (src lor dst) lsr 31 <> 0 then
      invalid_arg "Batch.Chain.push: src/dst outside [0, 2^31) cannot share a fused word";
    let seg =
      match t.tail with
      | Some s when s.Seg.len < t.arena.Arena.seg_cap -> s
      | tail ->
        let s = Arena.take t.arena in
        (match tail with
        | Some prev -> prev.Seg.next <- Some s
        | None -> t.head <- Some s);
        t.tail <- Some s;
        s
    in
    let i = seg.Seg.len in
    seg.Seg.sd.(i) <- (src lsl 31) lor dst;
    if Array.length seg.Seg.msgs = 0 then seg.Seg.msgs <- Array.make t.arena.Arena.seg_cap msg
    else seg.Seg.msgs.(i) <- msg;
    seg.Seg.len <- i + 1;
    t.total <- t.total + 1

  let clear t =
    let rec go = function
      | None -> ()
      | Some (s : 'msg Seg.t) ->
        let next = s.Seg.next in
        Arena.recycle t.arena s;
        go next
    in
    go t.head;
    t.head <- None;
    t.tail <- None;
    t.total <- 0

  (* Detach [src]'s whole segment chain onto [into]'s tail: O(1), no
     copying — how the sync mailbox commits a round's correct sends and
     keeps the non-rushing window. Partially-filled boundary segments
     stay partially filled; iteration respects per-segment lengths. *)
  let transfer src ~into =
    if src != into then begin
      match src.head with
      | None -> ()
      | Some h ->
        (match into.tail with
        | None -> into.head <- Some h
        | Some t -> t.Seg.next <- Some h);
        into.tail <- src.tail;
        into.total <- into.total + src.total;
        src.head <- None;
        src.tail <- None;
        src.total <- 0
    end

  let iter f t =
    let rec go = function
      | None -> ()
      | Some (s : 'msg Seg.t) ->
        for i = 0 to s.Seg.len - 1 do
          let sd = s.Seg.sd.(i) in
          f ~src:(sd lsr 31) ~dst:(sd land 0x7FFFFFFF) s.Seg.msgs.(i)
        done;
        go s.Seg.next
    in
    go t.head

  (* Deliver-as-you-go: visit every message in push order, recycling
     each segment into the arena's free list the moment its last
     message is handed to [f] — so pushes [f] performs into *other*
     chains of the same arena reuse the vacated storage immediately.
     The chain is detached up front; pushing into it from [f] is
     forbidden. *)
  let drain t ~f =
    let head = t.head in
    t.head <- None;
    t.tail <- None;
    t.total <- 0;
    let rec go = function
      | None -> ()
      | Some (s : 'msg Seg.t) ->
        for i = 0 to s.Seg.len - 1 do
          let sd = s.Seg.sd.(i) in
          f ~src:(sd lsr 31) ~dst:(sd land 0x7FFFFFFF) s.Seg.msgs.(i)
        done;
        let next = s.Seg.next in
        Arena.recycle t.arena s;
        go next
    in
    go head

  let to_envelopes t =
    let acc = ref [] in
    iter (fun ~src ~dst msg -> acc := Envelope.make ~src ~dst msg :: !acc) t;
    List.rev !acc
end

(* --- Process-wide peak-mailbox gauge ---

   Engines report each run's peak mailbox/calendar words here at run
   end, and the benchmark resets before each rep and reads after,
   without threading a handle through the run signatures. Atomic
   because runs finish on arbitrary pool domains. *)

module Peak = struct
  let cell = Atomic.make 0

  let reset () = Atomic.set cell 0

  let rec note w =
    let cur = Atomic.get cell in
    if w > cur && not (Atomic.compare_and_set cell cur w) then note w

  let get () = Atomic.get cell
end
