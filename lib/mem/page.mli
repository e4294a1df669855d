(** A 4 KiB page of tagged memory.

    Raw data lives in a [Bytes.t]; the capability tag side table is a sparse
    map from granule index to the stored {!Ufork_cheri.Capability.t}. A
    granule's tag is set iff the map has an entry for it — exactly CHERI's
    model where a valid capability in DRAM is a 16-byte value plus an
    out-of-band tag bit, and any non-capability store to the granule clears
    the tag (§2.4).

    The first 8 bytes of a capability granule mirror the capability's cursor
    so that integer reads of a stored pointer see a plausible address, as
    they would on hardware. *)

type t

val create : unit -> t
(** A zeroed page with all tags clear. *)

val clear : t -> unit
(** Zero the bytes and clear every tag: back to the {!create} state.
    Frame reuse from a freelist goes through this so a recycled page is
    indistinguishable from a fresh one. *)

val copy : t -> t
(** Deep copy: bytes and all tagged capabilities. *)

(** {1 Raw data} *)

val read_bytes : t -> off:int -> len:int -> bytes
val write_bytes : t -> off:int -> bytes -> unit
(** Clears the tag of every granule the write overlaps. *)

val blit_out : t -> off:int -> bytes -> pos:int -> len:int -> unit
(** [blit_out p ~off dst ~pos ~len] copies page bytes [[off, off+len)]
    into [dst] at [pos]: {!read_bytes} without the temporary. Raises
    [Invalid_argument] if either range is out of bounds. *)

val blit_in : bytes -> pos:int -> t -> off:int -> len:int -> unit
(** [blit_in src ~pos p ~off ~len] copies [src.[pos..pos+len)] into the
    page at [off] and clears the tag of every overlapped granule, as
    {!write_bytes} does. Both ranges are checked before anything
    changes. *)

val copy_into : src:t -> dst:t -> unit
(** Overwrite [dst] with [src]: every byte and every tagged capability,
    tags preserved; [dst]'s previous tags are gone. [src] is untouched. *)

val read_u8 : t -> off:int -> int
val write_u8 : t -> off:int -> int -> unit
val read_u64 : t -> off:int -> int64
val write_u64 : t -> off:int -> int64 -> unit
(** 8-byte accesses need not be aligned; tags of overlapped granules are
    cleared by writes. *)

(** {1 Capabilities} *)

val store_cap : t -> off:int -> Ufork_cheri.Capability.t -> unit
(** [off] must be 16-byte aligned. Storing an untagged capability clears
    the granule's tag (as a CSC of an untagged value does).
    Raises [Invalid_argument] on misalignment. *)

val load_cap : t -> off:int -> Ufork_cheri.Capability.t
(** [off] must be 16-byte aligned. If the granule's tag is clear, the
    result is an untagged capability (dereferencing it will fault), matching
    hardware behaviour of loading a non-capability value into a capability
    register. *)

val clear_tag_at : t -> off:int -> unit
(** Clear the tag of the (aligned) granule without touching its bytes —
    what capability revocation does. *)

val tag_at : t -> off:int -> bool
(** Tag of the granule containing (aligned) [off]. *)

val tagged_granules : t -> int list
(** Indices of granules holding valid capabilities, ascending. This is the
    16-byte-increment scan μFork's copy engine performs (§4.2). *)

val tagged_count : t -> int
val clear_all_tags : t -> unit

val iter_caps : t -> (int -> Ufork_cheri.Capability.t -> unit) -> unit
(** [iter_caps p f] applies [f granule cap] for each tagged granule. *)

val map_caps :
  t -> (Ufork_cheri.Capability.t -> Ufork_cheri.Capability.t) -> unit
(** Rewrite every tagged capability in place (relocation). *)
