(** A message in flight on the fully-connected network.

    Channels are authenticated (Section 2.1 of the paper): the receiver
    learns [src] reliably, so a Byzantine node cannot forge the sender
    identity — the engines construct envelopes themselves and adversary
    injections are forced to use a corrupted [src]. *)

type 'msg t = { src : int; dst : int; msg : 'msg }

val make : src:int -> dst:int -> 'msg -> 'msg t
