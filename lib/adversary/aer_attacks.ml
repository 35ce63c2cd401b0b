open Fba_stdx
open Fba_core
module Envelope = Fba_sim.Envelope
module Sampler = Fba_samplers.Sampler
module Push_plan = Fba_samplers.Push_plan
module Packed = Msg.Packed

type sync = Aer.msg Fba_sim.Sync_engine.adversary
type async = Aer.msg Fba_sim.Async_engine.adversary

let adversary_rng (sc : Scenario.t) tag =
  let params = sc.Scenario.params in
  Prng.create
    (Hash64.finish (Hash64.add_string (Hash64.init params.Params.seed) ("adversary:" ^ tag)))

let random_string rng bits = Bytes.unsafe_to_string (Prng.bits rng bits)

let byzantine_ids (sc : Scenario.t) = Array.of_list (Bitset.to_list sc.Scenario.corrupted)

(* Injected messages live on the packed plane like everything else;
   adversarial strings/labels are registered in the run's interner at
   injection time. Adversaries are deterministic, so the registration
   order — hence every id — is too. *)
let intern_of (sc : Scenario.t) = sc.Scenario.intern
let layout_of (sc : Scenario.t) = sc.Scenario.layout

let silent (sc : Scenario.t) =
  Fba_sim.Sync_engine.null_adversary ~corrupted:sc.Scenario.corrupted

let compose (sc : Scenario.t) (attacks : sync list) =
  let corrupted = sc.Scenario.corrupted in
  List.iter
    (fun (a : sync) ->
      if a.Fba_sim.Sync_engine.corrupted != corrupted then
        invalid_arg "Aer_attacks.compose: attacks built from different scenarios")
    attacks;
  {
    Fba_sim.Sync_engine.corrupted;
    act =
      (fun ~round ~observed ->
        List.concat_map
          (fun (a : sync) -> a.Fba_sim.Sync_engine.act ~round ~observed)
          attacks);
  }

let push_flood ?(fake_strings = 3) ?(blast = false) (sc : Scenario.t) =
  if fake_strings < 1 then invalid_arg "Aer_attacks.push_flood: fake_strings < 1";
  let params = sc.Scenario.params in
  let rng = adversary_rng sc "push_flood" in
  let fakes = Array.init fake_strings (fun _ -> random_string rng params.Params.gstring_bits) in
  let plan = Push_plan.create ~sampler:(Params.sampler_i params) () in
  let byz = byzantine_ids sc in
  let act ~round ~observed:_ =
    if round <> 0 then []
    else begin
      let outs = ref [] in
      Array.iter
        (fun s ->
          let msg = Packed.push (layout_of sc) ~sid:(Intern.intern (intern_of sc) s) in
          Array.iter
            (fun y ->
              if blast then
                for x = 0 to params.Params.n - 1 do
                  outs := Envelope.make ~src:y ~dst:x msg :: !outs
                done
              else
                Array.iter
                  (fun x -> outs := Envelope.make ~src:y ~dst:x msg :: !outs)
                  (Push_plan.targets plan ~s ~y))
            byz)
        fakes;
      !outs
    end
  in
  { Fba_sim.Sync_engine.corrupted = sc.Scenario.corrupted; act }

let wrong_answer (sc : Scenario.t) =
  let lt = layout_of sc in
  let gsid = Intern.intern (intern_of sc) sc.Scenario.gstring in
  let corrupted = sc.Scenario.corrupted in
  let replied : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let act ~round:_ ~observed =
    List.filter_map
      (fun (e : Aer.msg Envelope.t) ->
        let m = e.Envelope.msg in
        let sid = Packed.sid lt m in
        if
          Packed.tag m = Packed.tag_poll
          && sid <> gsid
          && Bitset.mem corrupted e.dst
          && (not (Bitset.mem corrupted e.src))
          &&
          (* (answerer, poller, string) replied-once key, packed like
             the protocol's own tables with the run layout's widths. *)
          let key =
            (((e.dst lsl lt.Msg.Layout.id_bits) lor e.src) lsl lt.Msg.Layout.sid_bits) lor sid
          in
          not (Hashtbl.mem replied key)
          && begin
               Hashtbl.add replied key ();
               true
             end
        then Some (Envelope.make ~src:e.dst ~dst:e.src (Packed.answer lt ~sid))
        else None)
      (observed ())
  in
  { Fba_sim.Sync_engine.corrupted; act }

(* Candidate labels scored per corrupted node's pull request. *)
let labels_per_search = 64

(* What cornering reads of the traffic: how many honest gstring polls
   each correct node is due to answer. [count] takes the sends one at a
   time, in send order, so the table — fold order included — is the same
   whether they come from a round's envelope list or from the async
   [observe] hook. *)
let poll_counts (sc : Scenario.t) =
  let lt = layout_of sc in
  let gsid = Intern.intern (intern_of sc) sc.Scenario.gstring in
  let corrupted = sc.Scenario.corrupted in
  let freq : (int, int) Hashtbl.t = Hashtbl.create 97 in
  let count ~src ~dst msg =
    if
      Packed.tag msg = Packed.tag_poll
      && Packed.sid lt msg = gsid
      && (not (Bitset.mem corrupted src))
      && not (Bitset.mem corrupted dst)
    then Hashtbl.replace freq dst (1 + Option.value ~default:0 (Hashtbl.find_opt freq dst))
  in
  (freq, count)

(* The cornering plan: spend one protocol-legitimate pull request per
   corrupted node, with a label searched so its poll list hits the
   chosen victims, exhausting their Algorithm-3 answer filter. [freq]
   is {!poll_counts}' table. Returns the envelopes to inject. *)
let cornering_plan (sc : Scenario.t) freq =
  let params = sc.Scenario.params in
  let lt = layout_of sc in
  let gstring = sc.Scenario.gstring in
  let gsid = Intern.intern (intern_of sc) gstring in
  let sh = Params.sampler_h params in
  let sj = Params.sampler_j params in
  let rng = adversary_rng sc "cornering" in
  let byz = byzantine_ids sc in
  let cap = params.Params.pull_filter in
  let budget = Array.length byz * params.Params.d_j in
  (* A node already due to answer [freq] honest polls only needs
     [cap + 1 − freq] adversarial answer-triggers before the filter
     trips on the remaining honest ones, so the most-polled nodes are
     the cheapest victims. Spend the budget greedily on them. *)
  let ranked =
    List.sort
      (fun (_, c1) (_, c2) -> compare c2 c1)
      (Hashtbl.fold (fun w c acc -> (w, c) :: acc) freq [])
  in
  let need : (int, int ref) Hashtbl.t = Hashtbl.create 97 in
  let remaining = ref budget in
  List.iter
    (fun (w, f) ->
      let cost = max 1 (cap + 1 - f) in
      if !remaining >= cost then begin
        remaining := !remaining - cost;
        Hashtbl.add need w (ref cost)
      end)
    ranked;
  (* One searched pull request per corrupted node. Candidate labels are
     batch-drawn up front (explicit loops — the Prng sequence is pinned
     by the recorded goldens, and [Array.init] order is unspecified).
     Each candidate poll list is drawn into one reused row and scored
     there; the best list so far is kept in a second row, which the
     final scan reads. *)
  let nb = Array.length byz in
  let labels = Array.make (max 1 (nb * labels_per_search)) 0L in
  for i = 0 to (nb * labels_per_search) - 1 do
    labels.(i) <- Prng.int64 rng
  done;
  let d = Sampler.d sj in
  let row = Array.make d 0 and best = Array.make d 0 in
  let score q =
    let acc = ref 0 in
    for k = 0 to d - 1 do
      match Hashtbl.find need q.(k) with
      | n when !n > 0 -> incr acc
      | _ | (exception Not_found) -> ()
    done;
    !acc
  in
  let outs = ref [] in
  Array.iteri
    (fun i a ->
      let base = i * labels_per_search in
      let best_r = ref labels.(base) in
      Sampler.quorum_into sj (Sampler.key_xr sj ~x:a ~r:!best_r) best ~pos:0;
      let best_score = ref (score best) in
      for j = 1 to labels_per_search - 1 do
        let r = labels.(base + j) in
        Sampler.quorum_into sj (Sampler.key_xr sj ~x:a ~r) row ~pos:0;
        let sc' = score row in
        if sc' > !best_score then begin
          best_score := sc';
          best_r := r;
          Array.blit row 0 best 0 d
        end
      done;
      let r = !best_r in
      let rid = Intern.intern_label (intern_of sc) r in
      let poll_msg = Packed.poll lt ~sid:gsid ~rid in
      let pull_msg = Packed.pull lt ~sid:gsid ~rid in
      Array.iter
        (fun w ->
          (match Hashtbl.find need w with
          | n when !n > 0 -> decr n
          | _ | (exception Not_found) -> ());
          outs := Envelope.make ~src:a ~dst:w poll_msg :: !outs)
        best;
      Array.iter
        (fun y -> outs := Envelope.make ~src:a ~dst:y pull_msg :: !outs)
        (Sampler.quorum_sx sh ~s:gstring ~x:a))
    byz;
  !outs

let cornering (sc : Scenario.t) =
  let fired = ref false in
  let act ~round ~observed =
    if round = 0 && not !fired then begin
      fired := true;
      let freq, count = poll_counts sc in
      List.iter (fun (e : Aer.msg Envelope.t) -> count ~src:e.src ~dst:e.dst e.msg) (observed ());
      cornering_plan sc freq
    end
    else []
  in
  { Fba_sim.Sync_engine.corrupted = sc.Scenario.corrupted; act }

(* Hash searches allowed per string to plant. *)
let max_tries = 400

let quorum_capture ?(victims = 4) ?strings_per_victim (sc : Scenario.t) =
  let params = sc.Scenario.params in
  let n = params.Params.n in
  let corrupted = sc.Scenario.corrupted in
  let si = Params.sampler_i params in
  let rng = adversary_rng sc "quorum_capture" in
  let strings_per_victim =
    match strings_per_victim with Some k -> k | None -> max 4 (n / 8)
  in
  let maj = Params.majority_i params in
  (* Victims: the first correct identities (the choice is arbitrary —
     the point is concentration). *)
  let victim_list =
    let acc = ref [] and i = ref 0 in
    while List.length !acc < victims && !i < n do
      if not (Bitset.mem corrupted !i) then acc := !i :: !acc;
      incr i
    done;
    List.rev !acc
  in
  let fired = ref false in
  let act ~round ~observed:_ =
    if round <> 0 || !fired then []
    else begin
      fired := true;
      let outs = ref [] in
      List.iter
        (fun v ->
          let planted = ref 0 and tries = ref 0 in
          while !planted < strings_per_victim && !tries < max_tries * strings_per_victim do
            incr tries;
            let s = random_string rng params.Params.gstring_bits in
            let quorum = Sampler.quorum_sx si ~s ~x:v in
            let byz_members = Array.of_list (List.filter (Bitset.mem corrupted) (Array.to_list quorum)) in
            if Array.length byz_members >= maj then begin
              incr planted;
              let msg = Packed.push (layout_of sc) ~sid:(Intern.intern (intern_of sc) s) in
              Array.iter
                (fun y -> outs := Envelope.make ~src:y ~dst:v msg :: !outs)
                byz_members
            end
          done)
        victim_list;
      !outs
    end
  in
  { Fba_sim.Sync_engine.corrupted; act }

let async_of_sync ?(max_delay = 4) (sc : Scenario.t) (attack : sync) =
  if max_delay < 1 then invalid_arg "Aer_attacks.async_of_sync: max_delay < 1";
  let corrupted = sc.Scenario.corrupted in
  (* The async observation hook is per-message (field-based); the
     lifted sync strategy wants a batch. A window's sends go into three
     reused int lanes (an Aer.msg is one packed int), and its envelope
     list is built only if the strategy asks for it, at most once:
     cornering reads the round-0 window alone. [observed] is valid only
     during [act], so the lanes are cleared as soon as it returns. *)
  let srcs = Vec.create () and dsts = Vec.create () and msgs = Vec.create () in
  let observe ~time:_ ~src ~dst msg =
    Vec.push srcs src;
    Vec.push dsts dst;
    Vec.push msgs msg
  in
  let envelopes () =
    let acc = ref [] in
    for i = Vec.length msgs - 1 downto 0 do
      acc := Envelope.make ~src:(Vec.get srcs i) ~dst:(Vec.get dsts i) (Vec.get msgs i) :: !acc
    done;
    !acc
  in
  let inject ~time =
    if time mod max_delay = 0 then begin
      let window = lazy (envelopes ()) in
      let out =
        attack.Fba_sim.Sync_engine.act ~round:(time / max_delay) ~observed:(fun () ->
            Lazy.force window)
      in
      Vec.clear srcs;
      Vec.clear dsts;
      Vec.clear msgs;
      List.map (fun e -> (e, 1)) out
    end
    else []
  in
  {
    Fba_sim.Async_engine.corrupted;
    max_delay;
    delay = Schedulers.slow_correct ~corrupted ~max_delay;
    observe;
    inject;
  }

(* [async_of_sync ~max_delay:4 sc (cornering sc)] with its own delay,
   without the lift's log of every send: cornering acts on the time-0
   window alone, and the engine injects time 0's plan only after every
   time-0 send, so counting those polls as they are sent is all it
   needs. A later send costs [observe]'s one call. *)
let async_cornering (sc : Scenario.t) =
  let max_delay = 4 in
  let lt = layout_of sc in
  let corrupted = sc.Scenario.corrupted in
  let freq, count = poll_counts sc in
  let observe ~time ~src ~dst msg = if time = 0 then count ~src ~dst msg in
  let inject ~time = if time = 0 then List.map (fun e -> (e, 1)) (cornering_plan sc freq) else [] in
  (* Content-inspecting schedule: traffic serving the adversary's own
     pull chains travels at full speed, honest traffic crawls. *)
  let delay ~time:_ ~src ~dst msg =
    if Bitset.mem corrupted src || Bitset.mem corrupted dst then 1
    else begin
      let tag = Packed.tag msg in
      if (tag = Packed.tag_fw1 || tag = Packed.tag_fw2) && Bitset.mem corrupted (Packed.x lt msg)
      then 1
      else max_delay
    end
  in
  { Fba_sim.Async_engine.corrupted; max_delay; delay; observe; inject }
