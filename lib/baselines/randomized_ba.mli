(** Randomized binary Byzantine agreement (Ben-Or '83), optionally with
    a common coin (Rabin '83) — the randomized baselines of Figure 1(b).

    Each logical round has a report phase and a proposal phase. A node
    decides b on ≥ 2t+1 matching proposals, adopts b on ≥ t+1, and
    otherwise flips a coin:
    - [`Local]: private coin — Ben-Or. Expected constant rounds only
      for t = O(√n); against a vote-splitting adversary the round count
      grows quickly with t, which is why it is not competitive in the
      paper's Figure 1(b).
    - [`Common seed]: all correct nodes share the flip — Rabin-style.
      O(1) expected rounds for t < n/4 but Θ(n²) messages per round;
      stands in for [PR10]'s private-channel protocol (DESIGN.md
      substitution 3), whose secret-sharing exactly implements such a
      coin.

    Agreement is on a bit; outputs are ["0"]/["1"]. *)

type coin = [ `Local | `Common of int64 ]

type config

val make_config :
  ?max_logical_rounds:int ->
  n:int ->
  t_assumed:int ->
  coin:coin ->
  inputs:(int -> bool) ->
  unit ->
  config
(** [t_assumed] is the resilience the thresholds are computed for;
    requires [5·t_assumed < n] (the classic Ben-Or bound, which also
    satisfies Rabin's t < n/4). [max_logical_rounds] defaults to 64. *)

include Fba_sim.Protocol.S with type config := config

val max_engine_rounds : config -> int

val split_vote_adversary :
  config -> corrupted:Fba_stdx.Bitset.t -> msg Fba_sim.Sync_engine.adversary
(** The classic anti-Ben-Or strategy: corrupted nodes report 0 to one
    half of the network and 1 to the other and never propose, keeping
    honest counts straddling the threshold so that private coins must
    align by luck. Ineffective against the common coin. *)
