(** Fixed-capacity bitsets over integers [\[0, capacity)].

    Used for corruption sets, knowledgeable sets and quorum membership
    where dense integer sets beat hash tables. *)

type t

val create : int -> t
(** [create capacity] is the empty set over [\[0, capacity)]. *)

val capacity : t -> int
(** Maximum element count (exclusive upper bound of members). *)

val mem : t -> int -> bool
(** Membership; raises [Invalid_argument] out of range. *)

val add : t -> int -> unit
(** Add an element in place. *)

val cardinal : t -> int
(** Number of members. O(capacity/64). *)

val equal : t -> t -> bool
(** Same capacity and same members. O(capacity/8), no allocation. *)

val of_list : int -> int list -> t
(** [of_list capacity elements]. *)

val of_array : int -> int array -> t

val to_list : t -> int list
(** Members in increasing order. *)

val iter : (int -> unit) -> t -> unit
(** Iterate members in increasing order. *)

val count_in : t -> int array -> int
(** [count_in t a] is the number of entries of [a] that are members of
    [t]; entries outside capacity raise [Invalid_argument]. *)
