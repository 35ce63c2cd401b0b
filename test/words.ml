(* AER messages as the tests build them: packed words (Msg.Packed) whose
   string and label go through the run's interner, so a word built here
   equals the word a handler emits for the same message. *)

open Fba_core
module Packed = Msg.Packed

type t = { lt : Msg.Layout.t; intern : Intern.t }

let make lt intern = { lt; intern }
let of_scenario (sc : Scenario.t) = make sc.Scenario.layout sc.Scenario.intern
let sid t s = Intern.intern t.intern s
let rid t r = Intern.intern_label t.intern r
let push t s = Packed.push t.lt ~sid:(sid t s)
let poll t s ~r = Packed.poll t.lt ~sid:(sid t s) ~rid:(rid t r)
let pull t s ~r = Packed.pull t.lt ~sid:(sid t s) ~rid:(rid t r)
let fw1 t ~x s ~r ~w = Packed.fw1 t.lt ~sid:(sid t s) ~rid:(rid t r) ~x ~w
let fw2 t ~x s ~r = Packed.fw2 t.lt ~sid:(sid t s) ~rid:(rid t r) ~x
let answer t s = Packed.answer t.lt ~sid:(sid t s)

(* The string a word carries. *)
let string t p = Intern.string t.intern (Packed.sid t.lt p)

(* The sends of [outs] whose word has [tag]. *)
let tagged tag outs = List.filter (fun (_, p) -> Packed.tag p = tag) outs

(* Failure messages print the raw fields (tags as in Msg.Packed). *)
let pp t fmt p =
  Format.fprintf fmt "{tag=%d sid=%d rid=%d x=%d w=%d}" (Packed.tag p) (Packed.sid t.lt p)
    (Packed.rid t.lt p) (Packed.x t.lt p) (Packed.w t.lt p)

(* Alcotest's view of a word and of a handler's sends. *)
let word t = Alcotest.testable (pp t) Int.equal
let sends t = Alcotest.(list (pair int (word t)))
