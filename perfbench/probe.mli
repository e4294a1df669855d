(** Host-speed reference loops, recorded with every run so that a change
    in machine speed between two sets of runs shows in the results
    instead of passing for a code change. Neither loop touches the
    simulator. *)

type t = { noalloc_ms : float; alloc_ms : float }

val measure : unit -> t
(** Median of five timings of each loop (about 0.3 s in all). *)
