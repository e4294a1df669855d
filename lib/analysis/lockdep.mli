(** Runtime lock-order checking ("lockdep") — invariant R2.

    Replays {!Ufork_util.Hb} [Acquire]/[Release] events into a
    may-hold-while-acquiring graph keyed by lock name: an edge [a → b]
    means some thread acquired [b] while holding [a]. The lock regime is
    deadlock-free exactly while this graph stays acyclic and nested
    page-table shards are taken in ascending index order; any
    counterexample is reported as R2 (Critical).

    Page-table shards are tracked per index ([lock.pt_shard.07]), not
    collapsed to one class like the static mirror (lint rule D10), so a
    descending pair is caught on the very acquisition that inverts the
    order — no annotation escape hatch exists at runtime.

    Like the race detector, the checker only observes: it charges no
    cycles and perturbs neither scheduling nor golden accounting. *)

type t

val create : Ufork_util.Hb.t -> t
(** [create bus] subscribes a fresh checker to [bus] — the bus of the
    machine it checks — beside any other subscriber. Lock ids resolve
    to names through the same bus. *)

val violations : t -> Invariant.violation list
(** Every R2 violation, oldest first; at most one per ordered pair of
    lock names. *)

val events_seen : t -> int
(** Bus events processed — a sanity probe that instrumentation fired. *)

val edges : t -> (string * string) list
(** The acquisition graph observed so far, as [(held, acquired)] name
    pairs, sorted — the runtime counterpart of [lint --lock-graph]. *)
