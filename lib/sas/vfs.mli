(** In-memory filesystem (ramdisk).

    The evaluation stores Redis dumps and Nginx document roots on a
    ram-disk "minimizing I/O latency" (§5.1); this VFS models exactly that:
    named growable byte files, no block layer. Costs are charged by the
    syscall layer, not here. On the host a file is stored in 64 KiB
    blocks, so growing it never re-copies its bytes. *)

type t
type file

val create : unit -> t

val open_ : t -> string -> [ `Read | `Write | `Create | `Append ] -> file
(** [`Read] requires the file to exist (raises [Not_found]); [`Create]
    truncates or creates; [`Append] creates if needed and seeks to the
    end; [`Write] opens an existing file for writing at offset 0. *)

val read : file -> int -> bytes
(** Sequential read from the file cursor; short result at EOF. *)

val write : file -> bytes -> int
(** Sequential write at the cursor, growing the file; returns the count.
    A write past the end leaves a hole that reads back as zeros. *)

val seek : file -> int -> unit
val size_of : file -> int
val close : file -> unit

val exists : t -> string -> bool
val size : t -> string -> int
(** Raises [Not_found]. *)

val contents : t -> string -> string
(** Whole-file read (test/verification helper). Raises [Not_found]. *)

val put : t -> string -> string -> unit
(** Create/overwrite a file with the given contents (setup helper). *)

val rename : t -> src:string -> dst:string -> unit
(** Raises [Not_found] if [src] is missing; replaces [dst]. *)

val unlink : t -> string -> unit
val list : t -> string list
(** Sorted file names. *)
