(** The order in which a [Stdlib.Hashtbl] walks its int keys, computed
    without building the table.

    AER's Fw1 burst emits its targets in the order a fresh
    [Hashtbl.create 8] once gave them, and the determinism goldens pin
    that order. It follows from the table's rules alone: 16 buckets,
    doubled while the size exceeds twice the bucket count; a key lives
    in bucket [Hashtbl.hash key land (buckets - 1)], newest first (a
    resize keeps that order); [fold] walks buckets 0, 1, ... So a
    counting sort over the bucket indices gives the walk, with no
    bucket cell per key. Each key is hashed once. *)

type t
(** Reusable scratch for {!reversed_fold}. *)

val create : unit -> t

val reversed_fold : t -> int array -> int -> int array
(** [reversed_fold t keys k] orders the distinct [keys.(0 .. k-1)] as
    a fresh [Hashtbl.create 8] that had them [add]ed in that order
    lists them when its [fold] conses each key it visits: by bucket
    descending, and in add order within a bucket. The result's first
    [k] entries are positions into [keys]; it is [t]'s storage, valid
    until the next call. *)
