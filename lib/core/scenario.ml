open Fba_stdx

type junk = Junk_default | Junk_unique | Junk_shared of int

type t = {
  params : Params.t;
  gstring : string;
  corrupted : Bitset.t;
  knowledgeable : Bitset.t;
  initial : string array;
  layout : Msg.Layout.t;
  intern : Intern.t;
}

(* The packed field widths are fixed before the interner exists: count
   the distinct initial strings, fit a layout to (n, strings), and cap
   the interner's tables at the layout's field capacities. *)
let layout_of ~(params : Params.t) ~gstring ~initial =
  let seen = Hashtbl.create 64 in
  Hashtbl.replace seen gstring ();
  Array.iter (fun s -> Hashtbl.replace seen s ()) initial;
  Msg.Layout.fit ~n:params.Params.n ~strings:(Hashtbl.length seen)

(* Packed messages need every payload registered: seed the interner
   with gstring and the initial candidates in a fixed order, so ids
   are stable regardless of which node or adversary packs first. *)
let intern_of ~(layout : Msg.Layout.t) ~gstring ~initial =
  let intern =
    Intern.create ~max_strings:layout.Msg.Layout.max_strings
      ~max_labels:layout.Msg.Layout.max_labels
  in
  ignore (Intern.intern intern gstring);
  Array.iter (fun s -> ignore (Intern.intern intern s)) initial;
  intern

let random_string rng bits = Bytes.unsafe_to_string (Prng.bits rng bits)

let make ?(junk = Junk_unique) ?gstring ~(params : Params.t) ~rng
    ~byzantine_fraction ~knowledgeable_fraction () =
  let n = params.Params.n in
  if byzantine_fraction < 0.0 || byzantine_fraction >= 1.0 /. 3.0 then
    invalid_arg "Scenario.make: byzantine_fraction must be in [0, 1/3)";
  if knowledgeable_fraction <= 0.5 || knowledgeable_fraction > 1.0 then
    invalid_arg "Scenario.make: knowledgeable_fraction must be in (1/2, 1]";
  let t = int_of_float (byzantine_fraction *. float_of_int n) in
  let k = int_of_float (ceil (knowledgeable_fraction *. float_of_int n)) in
  if t + k > n then
    invalid_arg "Scenario.make: more knowledgeable nodes requested than correct nodes exist";
  (* Draw gstring from a split stream so that supplying an explicit
     gstring leaves the corruption/knowledge assignment unchanged —
     ablations compare adversarial vs random gstrings on identical
     workloads. *)
  let gstring_rng = Prng.split rng in
  let gstring =
    match gstring with
    | Some s ->
      if 8 * String.length s < params.Params.gstring_bits then
        invalid_arg "Scenario.make: gstring shorter than params.gstring_bits";
      s
    | None -> random_string gstring_rng params.Params.gstring_bits
  in
  (* One shuffled permutation assigns both corruption and knowledge:
     the first t identities are Byzantine, the next k are correct and
     knowledgeable, the rest are correct but ignorant. *)
  let perm = Array.init n (fun i -> i) in
  Prng.shuffle rng perm;
  let corrupted = Bitset.create n in
  for i = 0 to t - 1 do
    Bitset.add corrupted perm.(i)
  done;
  let knowledgeable = Bitset.create n in
  for i = t to t + k - 1 do
    Bitset.add knowledgeable perm.(i)
  done;
  let shared_junk =
    match junk with
    | Junk_shared m when m >= 1 ->
      Array.init m (fun _ -> random_string rng params.Params.gstring_bits)
    | Junk_shared _ -> invalid_arg "Scenario.make: Junk_shared needs a positive count"
    | Junk_default | Junk_unique -> [||]
  in
  let default_junk = String.make ((params.Params.gstring_bits + 7) / 8) '\000' in
  let junk_counter = ref 0 in
  let initial =
    Array.init n (fun id ->
        if Bitset.mem knowledgeable id then gstring
        else begin
          match junk with
          | Junk_default -> default_junk
          | Junk_unique -> random_string rng params.Params.gstring_bits
          | Junk_shared _ ->
            let s = shared_junk.(!junk_counter mod Array.length shared_junk) in
            incr junk_counter;
            s
        end)
  in
  let layout = layout_of ~params ~gstring ~initial in
  { params; gstring; corrupted; knowledgeable; initial; layout;
    intern = intern_of ~layout ~gstring ~initial }

let of_assignment ~params ~gstring ~corrupted ~initial () =
  let n = params.Params.n in
  if Array.length initial <> n then
    invalid_arg "Scenario.of_assignment: initial array size mismatch";
  if Bitset.capacity corrupted <> n then
    invalid_arg "Scenario.of_assignment: corrupted bitset capacity mismatch";
  let knowledgeable = Bitset.create n in
  for id = 0 to n - 1 do
    if (not (Bitset.mem corrupted id)) && initial.(id) = gstring then
      Bitset.add knowledgeable id
  done;
  let layout = layout_of ~params ~gstring ~initial in
  { params; gstring; corrupted; knowledgeable; initial; layout;
    intern = intern_of ~layout ~gstring ~initial }

let knowledgeable_fraction t =
  float_of_int (Bitset.cardinal t.knowledgeable) /. float_of_int Params.(t.params.n)

let correct_count t =
  Params.(t.params.n) - Bitset.cardinal t.corrupted

let is_correct t id = not (Bitset.mem t.corrupted id)

let knows_gstring t id = Bitset.mem t.knowledgeable id
