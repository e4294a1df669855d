(** Blocking synchronization for engine threads.

    [Lock] models mutexes — notably Unikraft's big kernel lock, which
    serializes kernel code across cores (§4.5) — and [Cond] models waitqueues
    (pipe readers, [wait] for child exit). Both are FIFO and deterministic. *)

module Lock : sig
  type t

  val create : ?bus:Ufork_util.Hb.t -> ?name:string -> unit -> t
  (** [bus] is the machine's happens-before bus ({!Engine.bus}): the
      lock publishes there and reads its holder's tid from it. A lock
      built outside any machine (unit tests) gets a bus that no one
      subscribes to and records no holder tid. [name] registers a stable
      resource name for the lock's id with the bus, so race reports and
      trace exports name the resource, not a number. *)

  val acquire : t -> unit
  (** Blocks (suspending the calling engine thread) until available. *)

  val release : t -> unit
  (** Hands the lock to the longest-waiting thread, if any. Raises
      [Invalid_argument] if the lock is not held. *)

  val with_lock : t -> (unit -> 'a) -> 'a
  (** [acquire]; run; [release] (also on exception). *)

  val locked : t -> bool

  val id : t -> int
  (** Stable identity; names the lock in happens-before events. *)

  val name : t -> string option
end

(** {1 Contention counters}

    Every named lock counts acquisitions, blocked acquisitions, and
    which thread held it each time a waiter blocked. Plain counters: no
    cycles are charged and no engine state is touched, so scheduling and
    golden accounting are unchanged. Aggregated by resource name across
    every named lock created so far (several booted machines sum). *)

type contention = {
  lock : string;  (** the resource name passed to [create ~name] *)
  acquires : int;  (** outermost acquisitions (recursive re-entries excluded) *)
  waits : int;  (** acquisitions that found the lock held and suspended *)
  wait_holders : (int * int) list;
      (** holder tid at the moment a waiter blocked → how often, sorted *)
}

val lock_contention : unit -> contention list
(** One row per distinct lock name, sorted by name. *)

val lock_contention_prometheus : unit -> string
(** Prometheus text exposition: [ufork_lock_acquire_total],
    [ufork_lock_wait_total], [ufork_lock_wait_holder_total], each
    labelled by lock name (and holder tid for the last). *)

val reset_lock_contention : unit -> unit
(** Forget every lock registered so far (unit-test isolation). *)

(** Recursive lock, owner-tracked by engine tid. Kernel code re-enters
    (a fault inside a syscall services on the same thread), and a plain
    {!Lock} would self-deadlock the cooperative engine. Only the
    outermost acquire/release pair touches the underlying {!Lock} and
    the happens-before bus. *)
module Rlock : sig
  type t

  val create : bus:Ufork_util.Hb.t -> ?name:string -> unit -> t
  val acquire : t -> unit
  val release : t -> unit
  val with_lock : t -> (unit -> 'a) -> 'a
  val id : t -> int
  val name : t -> string option
end

module Cond : sig
  type t

  val create : unit -> t
  val wait : t -> unit
  (** Suspend until signalled. No lock is associated: callers re-check
      their predicate on wakeup (spurious-wakeup-safe style). *)

  val add_waiter : t -> Engine.waker -> unit
  (** Register an externally created waker (signal-interruptible waits). *)

  val signal : t -> unit
  (** Wake the longest-waiting thread (no-op when none; entries already
      woken out of band are skipped). *)

  val broadcast : t -> unit
  val waiters : t -> int
end
