(* Distributed randomness from the committee substrate.

   The almost-everywhere phase is useful on its own: it makes almost
   all nodes agree on a string of which at least 2/3+ε of the bits are
   uniformly random (each root-committee member contributes a slice;
   the Byzantine minority controls only its own slices). This example
   runs it standalone, shows the agreement fraction, and measures how
   many bits the adversary controlled.

     dune exec examples/committee_randomness.exe *)

open Fba_stdx
module Aeba = Fba_aeba.Aeba
module Engine = Fba_sim.Sync_engine.Make (Aeba)

let () =
  let n = 512 in
  let seed = 99L in
  let byzantine_fraction = 0.15 in
  let cfg = Aeba.make_config ~n ~seed ~byzantine_fraction () in
  let tree = Aeba.config_tree cfg in
  let m = Fba_aeba.Committee_tree.committee_size tree in
  Printf.printf "Committee tree: %d nodes, committees of %d, %d levels, %d groups\n" n m
    (Fba_aeba.Committee_tree.levels tree)
    (Fba_aeba.Committee_tree.group_count tree);
  let rng = Prng.create 7L in
  let t = int_of_float (byzantine_fraction *. float_of_int n) in
  let corrupted = Bitset.of_array n (Prng.sample_without_replacement rng ~n ~k:t) in
  let res =
    Engine.run ~config:cfg ~n ~seed
      ~adversary:(Fba_sim.Sync_engine.null_adversary ~corrupted)
      ~mode:`Rushing
      ~max_rounds:(Aeba.total_rounds cfg + 2) ()
  in
  let mask = Array.init n (fun i -> not (Bitset.mem corrupted i)) in
  match Plurality.of_outputs res.Fba_sim.Sync_engine.outputs ~counted:(Array.get mask) with
  | None -> print_endline "no agreement (should not happen)"
  | Some gstring ->
    let agree = ref 0 and correct = ref 0 in
    Array.iteri
      (fun i o ->
        if mask.(i) then begin
          incr correct;
          if o = Some gstring then incr agree
        end)
      res.Fba_sim.Sync_engine.outputs;
    Printf.printf "agreement: %d/%d correct nodes hold the same string (almost-everywhere)\n"
      !agree !correct;
    (* How much of the string did the adversary control? Exactly the
       slices of corrupted root members. *)
    let root = Fba_aeba.Committee_tree.root tree in
    let byz_slices = Array.fold_left (fun a id -> if Bitset.mem corrupted id then a + 1 else a) 0 root in
    Printf.printf "root committee: %d members, %d Byzantine -> at most %.1f%% of gstring's bits \
                   adversary-controlled (paper requires < 1/3)\n"
      (Array.length root) byz_slices
      (100.0 *. float_of_int byz_slices /. float_of_int (Array.length root));
    Printf.printf "gstring (%d bits): " (8 * String.length gstring);
    String.iter (fun c -> Printf.printf "%02x" (Char.code c)) gstring;
    print_newline ();
    Printf.printf "rounds: %d, bits/node: %.0f\n"
      (Fba_sim.Metrics.rounds res.Fba_sim.Sync_engine.metrics)
      (Fba_sim.Metrics.amortized_bits res.Fba_sim.Sync_engine.metrics)
