(** RDB-style snapshot serialization for {!Kvstore} — the BGSAVE workload
    of Fig. 3/4/5.

    [bgsave] reproduces Redis's background save: fork, let the {e child}
    serialize the (copy-on-write-frozen) store to a temp file on the
    ram-disk, rename it into place, exit; the parent keeps serving and
    reaps the child. [save_to] is the serialization itself, also usable
    in-process (Redis's synchronous SAVE). *)

val magic : string
(** File header magic ("USDB0001"). *)

val save_to : Ufork_sas.Api.t -> Kvstore.t -> path:string -> int
(** Serialize to a temp file, rename over [path]; returns bytes written.
    Charges the per-byte serialization work and the write syscalls. *)

type bgsave_result = {
  fork_latency_cycles : int64;  (** Time the fork call took in the parent. *)
  total_cycles : int64;
      (** Trigger-to-completion time of the whole background save (what
          Fig. 3 reports). *)
  child_pid : int;
}

val bgsave : Ufork_sas.Api.t -> Kvstore.t -> path:string -> bgsave_result
(** Fork a snapshot child, wait for it, return the timings. The parent is
    free to mutate the store while the child dumps: the child sees the
    fork-instant state. *)

val iter_entries :
  string -> (key_off:int -> klen:int -> val_off:int -> vlen:int -> unit) -> int
(** The one dump parser, in place: [iter_entries dump f] calls [f] with
    the offsets of each entry's key and value inside [dump], in file
    order, then checks the footer's entry count and checksum and returns
    the count. Raises [Failure] on a corrupt file or bad checksum — after
    [f] has seen the entries before the corruption, so a caller must not
    trust what [f] saw until this returns. *)

val load_count : string -> int
(** Parse a dump (host-side verification helper): returns the number of
    entries; raises [Failure] on a corrupt file or bad checksum. *)

val verify : string -> (string * bytes) list
(** Parse a dump into its entries (host-side; raises [Failure] on
    corruption). *)
