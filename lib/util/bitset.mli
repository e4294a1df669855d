(** Fixed-size mutable bitsets.

    Used for the per-page capability-tag side table (one bit per 16-byte
    granule) and for dirty/copied page tracking. *)

type t

val create : int -> t
(** [create n] is a bitset of [n] bits, all clear. *)

val length : t -> int
val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit
val clear_all : t -> unit
val copy_into : src:t -> dst:t -> unit
(** Copies all bits; the two bitsets must have equal length. *)

val count : t -> int
(** Number of set bits. *)

val iter_set : t -> (int -> unit) -> unit
(** [iter_set t f] applies [f] to each set bit index, ascending. *)

val any : t -> bool
(** [any t] is true iff at least one bit is set. *)
