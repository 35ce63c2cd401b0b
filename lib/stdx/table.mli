(** Text tables for experiment output (markdown and CSV).

    Every experiment of [fba experiment] reproduces one of the paper's
    tables/figures as rows of one of these tables, so the renderer keeps
    the layout deterministic and diff-friendly. *)

type align = Left | Right

type t

val create : columns:(string * align) list -> t
(** [create ~columns] starts an empty table with the given header. *)

val add_row : t -> string list -> unit
(** Appends a row. Raises [Invalid_argument] if the arity does not match
    the header. *)

val to_markdown : t -> string
(** GitHub-flavoured markdown with padded columns. *)

val to_csv : t -> string
(** RFC-4180-ish CSV (quotes fields containing commas or quotes). *)

val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string
(** Formatting helpers with fixed decimal places (default 2). *)
