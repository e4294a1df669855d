(** Deterministic keyspaces and values for the Redis experiments.

    The paper populates the database "with different amounts of 100 KB
    entries" (§5.1); [populate] reproduces that, with values filled by a
    cheap deterministic pattern (content does not affect timing, only
    bytes moved — and the dump checker verifies it round-trips). *)

val key : int -> string
(** ["key:%08d"]. *)

val value : seed:int64 -> index:int -> len:int -> bytes
(** Deterministic pseudo-random-looking payload: a 64-byte block derived
    from (seed, index) tiled to [len]. *)

val populate :
  Ufork_apps.Kvstore.t -> entries:int -> value_len:int -> seed:int64 -> unit

val expected_entries :
  entries:int -> value_len:int -> seed:int64 -> (string * bytes) list
(** What a dump of the populated store must contain (sorted by key). *)

val dump_matches :
  entries:int -> value_len:int -> seed:int64 -> string -> bool
(** Whether a dump holds exactly the populated store: it parses with a
    good checksum, every key is [key i] for a distinct [0 <= i < entries],
    each value is byte-for-byte [value ~seed ~index:i ~len:value_len], and
    there are [entries] of them. Streams the dump in place, regenerating
    one value at a time, so it never holds a second copy of the DB. *)

val db_sizes_of_paper : (string * int * int) list
(** Fig. 3–5 sweep: (label, entries, value_len) from 100 KB to 100 MB of
    100 KB entries. *)

val db_sizes_extended : (string * int * int) list
(** {!db_sizes_of_paper} plus a 1 GB point. Affordable since fork-time
    page-range work charges one batched trace record per region instead
    of ~25k singletons per 100 MB. *)
