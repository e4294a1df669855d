(** Causal trace graph and critical-path analyzer.

    Subscribed to one machine's {!Ufork_util.Hb} bus, this module folds
    the ordering events the concurrency layer already publishes —
    spawn, wake, lock contention and hand-off, work stealing, TLB-IPI
    batches — together with {!Ufork_sim.Trace} span boundaries into
    per-thread causal timelines. After the run, {!analyze} walks the
    timelines backward from an anchor and tiles any interval with the
    weighted critical path: the chain of execution segments that
    bounded wall time, each attributed to its enclosing span path, with
    the lock-wait chains the path crossed ("forker 3 waited 41k cycles
    on lock.uproc_table held by forker 7 inside fork.dup_fd").

    Same zero-tolerance discipline as {!Ufork_sim.Trace.audit}: the
    critical path must tile the interval exactly (Σ segment cycles =
    interval wall cycles, segments contiguous), and Σ blamed cycles
    must equal the path length. Any mismatch raises {!Audit_failure} —
    an analyzer bug, never data. *)

type t

exception Audit_failure of string

val create : Ufork_util.Hb.t -> t
(** [create bus] subscribes a fresh collector to [bus] — the bus of the
    machine it analyzes. Each folded event is stamped with the bus's
    clock, and lock ids resolve to names through it. *)

val events_seen : t -> int

val horizon : t -> int64
(** The latest timestamp seen on any folded event — the natural upper
    bound for a whole-run analysis interval. *)

val fork_windows : t -> (int * int64 * int64) list
(** Completed fork windows — ["fork"] span open to close — as
    [(forker tid, open, close)], in completion order. This is the
    [--fork N] index space. *)

(** {1 Analysis} *)

type seg_kind =
  | Run  (** the thread held a core (or was runnable) for the segment *)
  | Sleep  (** the thread was suspended with no waker thread to follow
               (timer sleep, boot wake): the stall itself is the path *)

type segment = {
  s_tid : int;
  s_t0 : int64;
  s_t1 : int64;
  s_kind : seg_kind;
  s_span : string;  (** [;]-joined enclosing span path, or ["(unattributed)"] *)
}

type chain = {
  c_waiter : int;
  c_holder : int;
  c_lock : string;  (** lock name, or ["lock.anon.<id>"] *)
  c_cycles : int64;  (** contend-to-handoff wait *)
  c_waiter_span : string;  (** waiter's span path when it blocked *)
  c_holder_span : string;  (** holder's span path at the hand-off *)
}

type report = {
  r_t0 : int64;
  r_t1 : int64;
  r_anchor : int;  (** tid the backward walk started from *)
  r_segments : segment list;  (** oldest first; tiles [[r_t0, r_t1]] *)
  r_chains : chain list;  (** lock waits the path crossed, largest first *)
  r_blame : (string * int64) list;
      (** span path → critical-path cycles, descending; Σ = r_t1 - r_t0 *)
  r_lock_waits : (string * int * int64) list;
      (** whole-run per-lock (name, waits, wait cycles) — the count side
          matches {!Ufork_sim.Sync.lock_contention} exactly *)
  r_steals : int;  (** work steals crossed on the path *)
  r_ipis : int;  (** TLB-IPI batches sent inside the interval (all threads) *)
}

val analyze : t -> ?anchor:int -> t0:int64 -> t1:int64 -> unit -> report
(** Critical path over [[t0, t1]]. Without [anchor], starts from the
    thread with the latest dispatch-relevant record at or before [t1].
    Runs the tiling audit before returning. *)

val analyze_fork : t -> int -> report
(** [analyze_fork t n]: the [n]th completed fork window, anchored at
    the forker. [Invalid_argument] when out of range. *)

val dominant_lock : report -> (string * int64) option
(** The lock whose wait chains on the critical path sum highest, with
    the summed cycles — the "why did this stall" headline. *)

val lock_stall : t -> Invariant.violation list
(** Invariant R3 over the whole run ([0, {!horizon}]): one violation
    naming the {!dominant_lock} when its wait edges cover at least 20%
    of the critical path, else [[]]. *)

(** {1 Exports} *)

val pp_report : top:int -> Format.formatter -> report -> unit
(** Human-readable summary: path length, blame table, top-[top] wait
    chains, steal/IPI counts. *)

val to_json : report -> string
(** One JSON object: interval, segments, blame, chains, lock waits. *)

val to_dot : report -> string
(** Graphviz digraph of the critical path: one node per segment, edges
    in path order, dashed edges for the crossed wait chains. *)

val to_chrome : report -> string
(** Chrome [chrome://tracing] / Perfetto JSON array: one complete
    event per segment, lanes keyed by tid. *)
