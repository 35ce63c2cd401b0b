(** AER wire messages (Section 3.1, Algorithms 1–3), each one packed
    word ({!Packed}): Push(s), Poll(s, r), Pull(s, r), Fw1(x, s, r, w),
    Fw2(x, s, r) and Answer(s).

    The pull phase routes a request from the requester [x] through its
    Pull Quorum H(s, x), then through the Pull Quorums H(s, w) of every
    poll-list member w ∈ J(x, r), and back:

    {v
    x --Poll(s,r)--> J(x,r)                        (direct, authoritative)
    x --Pull(s,r)--> H(s,x)                        (proxies)
    y ∈ H(s,x) --Fw1(x,s,r,w)--> H(s,w)            (first forwarding hop)
    z ∈ H(s,w) --Fw2(x,s,r)--> w                   (majority-filtered)
    w --Answer(s)--> x                             (if Polled and majority)
    v} *)

(** First-class field widths for the packed plane. The packing order is
    fixed ([tag:3 | sid | rid | x | w], LSB first); a layout holds the
    widths and precomputes every shift, mask and capacity the hot paths
    need. {!fit} derives a run's layout from [n] and the number of
    distinct initial strings. A layout belongs to a {!Scenario.t} and
    must be used consistently for every word of a run. *)
module Layout : sig
  type t = private {
    sid_bits : int;  (** string-id field width *)
    rid_bits : int;  (** poll-label-id field width *)
    id_bits : int;  (** node-id field width (the x and w fields) *)
    rid_shift : int;
    x_shift : int;
    w_shift : int;
    sid_mask : int;
    rid_mask : int;
    id_mask : int;
    max_n : int;  (** [2^id_bits] — the population the layout can address *)
    max_strings : int;  (** [2^sid_bits] — interner string-table cap *)
    max_labels : int;  (** [2^rid_bits] — interner label-table cap *)
  }

  val make : sid_bits:int -> rid_bits:int -> id_bits:int -> t
  (** Raises [Invalid_argument] when the fields plus the 3-bit tag
      exceed the 63 bits of an OCaml immediate. *)

  exception Immediate_exhausted of { n : int; id_bits : int }
  (** The single-int packed word's structural ceiling: [n] needs
      [id_bits]-bit node ids, and even with the minimal string budget
      the 63-bit immediate cannot hold [tag:3|sid|rid|x|w] with the
      label field at its [id_bits + 1] floor. First raised past
      n = 2{^18} = 262144. No scenario change helps — lifting it needs
      the planned 2-int lane (paired words in [Stdx.Batch]-style
      parallel lanes). A printer is registered. *)

  val fit : n:int -> strings:int -> t
  (** Layout for a population of [n] nodes whose scenario starts with
      [strings] distinct candidate strings: node ids get exactly
      [⌈log₂ max(2, n)⌉] bits, strings roughly 2× headroom over
      [strings], and the label field every remaining bit (at most 30).
      Raises {!Immediate_exhausted} when no string budget could fit the
      widths into 63 bits (n > 262144), and [Invalid_argument] (naming
      the starved field, advising fewer distinct strings) when only the
      scenario's string count overflows — e.g. n = 262144 with hundreds
      of distinct strings; {!Scenario.Junk_shared} keeps such runs
      feasible. *)

  val total_bits : t -> int
end

(** One message as one OCaml immediate int, with strings and labels
    replaced by {!Intern} ids. Field widths come from the run's
    {!Layout}; every function below must be given the layout the word
    was packed with. The word carries no sizes: its wire cost is
    {!Compiled.bits}. *)
module Packed : sig
  type t = int

  val tag_push : int
  val tag_poll : int
  val tag_pull : int
  val tag_fw1 : int
  val tag_fw2 : int
  val tag_answer : int

  val tag : t -> int
  (** The tag field lives in the low 3 bits under every layout, so it
      needs no layout argument. *)

  val sid : Layout.t -> t -> int
  val rid : Layout.t -> t -> int
  val x : Layout.t -> t -> int
  val w : Layout.t -> t -> int

  val push : Layout.t -> sid:int -> t
  val poll : Layout.t -> sid:int -> rid:int -> t
  val pull : Layout.t -> sid:int -> rid:int -> t
  val fw1 : Layout.t -> sid:int -> rid:int -> x:int -> w:int -> t
  val fw2 : Layout.t -> sid:int -> rid:int -> x:int -> t
  val answer : Layout.t -> sid:int -> t
  (** Direct constructors; raise [Invalid_argument] on a field that
      does not fit its packed width, naming the overflowing field, its
      value and the layout's bound. *)
end
