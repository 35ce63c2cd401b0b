(* AER as the engines see it, with every protocol hook they call wrapped
   in a span ({!Spans}): the traced rep runs [Sync_engine.Make (Timed)]
   and [Async_engine.Make (Timed)] where the public path runs
   [Make (Aer)]. The wrappers only read the clock and count, so the
   execution — and its fingerprint — is unchanged. *)

open Fba_core
include Aer

(* "aer.receive.<tag>" per wire tag, named from {!Aer.msg_tags}. The
   engines call [compile] before the first delivery, which fills it. *)
let receive_names = ref [||]

let compile cfg =
  if Array.length !receive_names = 0 then
    receive_names := Array.map (fun tag -> "aer.receive." ^ tag) (Aer.msg_tags cfg);
  (* Engines call [compile] again on an already-compiled config; only
     the call that builds the tables is a span. *)
  if Aer.config_compiled cfg = None then Spans.span "compiled.build" (fun () -> Aer.compile cfg)

let init cfg ctx = Spans.span "aer.init" (fun () -> Aer.init cfg ctx)

let on_round cfg st ~round = Spans.span "aer.on_round" (fun () -> Aer.on_round cfg st ~round)

(* One aggregated span per tag under the current round: its count is
   the tag's deliveries, its duration their summed handler time. *)
let receive_into =
  Option.map
    (fun f cfg st ~round ~src m ~emit ->
      Spans.enter (Array.unsafe_get !receive_names (Aer.msg_tag cfg m));
      f cfg st ~round ~src m ~emit;
      Spans.leave ())
    Aer.receive_into

(* Adversary wrappers, generic in the message type so the grid's silent
   adversary and the service's cornering one reuse them. [injected]
   counts the envelopes the sync strategy returned. *)
let injected = ref 0

let sync_adversary (a : 'msg Fba_sim.Sync_engine.adversary) =
  {
    a with
    Fba_sim.Sync_engine.act =
      (fun ~round ~observed ->
        Spans.span "adversary.act" (fun () ->
            let out = a.Fba_sim.Sync_engine.act ~round ~observed in
            injected := !injected + List.length out;
            out));
  }

let async_adversary (a : 'msg Fba_sim.Async_engine.adversary) =
  let open Fba_sim.Async_engine in
  {
    a with
    (* Called once per correct send: enter/leave, not a closure. *)
    delay =
      (fun ~time ~src ~dst m ->
        Spans.enter "adversary.delay";
        let d = a.delay ~time ~src ~dst m in
        Spans.leave ();
        d);
    observe =
      (fun ~time ~src ~dst m ->
        Spans.enter "adversary.observe";
        a.observe ~time ~src ~dst m;
        Spans.leave ());
    inject =
      (fun ~time ->
        Spans.span "adversary.inject" (fun () ->
            let out = a.inject ~time in
            injected := !injected + List.length out;
            out));
  }
