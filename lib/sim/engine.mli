(** Deterministic discrete-event simulation engine with green threads.

    Models the evaluation machine of the paper: an ARM Morello development
    system with 4 cores at 2.5 GHz. Simulated computations are green
    threads (OCaml 5 effect handlers); a thread occupies one core while it
    runs and consumes simulated time only through {!advance}. Threads that
    {!yield}, {!sleep}, or block on {!Cond}/{!Lock} free their core, so
    I/O-overlap and lock-serialization behaviour (e.g. Unikraft's big
    kernel lock, Nginx workers yielding during network waits) emerge
    naturally.

    Scheduling is non-preemptive and deterministic. Every ready thread
    is stamped with a global ready sequence and queued in age order: a
    pinned thread on its affinity core's FIFO, an unpinned one on the
    single unpinned FIFO. Dispatch runs ready entries globally oldest
    first, so the schedule is that of one FIFO. An unpinned entry runs
    on its home core (the core it last ran on; initially tid mod cores)
    when idle, else on the first idle core scanning upward from it — a
    steal that migrates and re-homes the thread. A pinned entry whose
    core is busy waits, never migrated, and younger runnable work runs
    past it. Both choices are functions of queue contents and core ids
    alone, so for a given seed and core count the schedule (and every
    trace derived from it) is bit-reproducible. A dispatch step
    allocates nothing and does not scan the cores unless a pinned
    thread is ready. *)

type t
type tid = int

val max_cores : int
(** 1024: the most cores a machine boots with. *)

val create : ?cores:int -> unit -> t
(** Default 4 cores; 1 to {!max_cores} ([Invalid_argument] outside —
    the SMP scaling study sweeps to 512). *)

val cores : t -> int

val steals : t -> int
(** Number of work steals performed so far: an idle core running an
    unpinned entry whose home core was busy. *)

val running_tid : t -> tid
(** The simulated thread currently executing host code on this engine,
    or [-1] when none is (boot code, the run loop between events). A
    plain field read — no effect dispatch; this is what {!Trace.emit}'s
    fast path keys charging on. Maintained
    with save/restore around every resume, so nested execution (a
    running thread whose [wake] dispatches another thread onto an idle
    core) unwinds correctly. *)

val running_core : t -> int
(** Core occupied by the running thread, or [-1], maintained the same
    way. *)

val running_name : t -> string
(** Name of the running thread ([spawn]'s [?name], or ["t<tid>"] when
    none was given), or [""]. Trace records carry it so exports can
    label lanes. *)

val bus : t -> Ufork_util.Hb.t
(** This machine's happens-before bus. Its tid, core and clock are
    {!running_tid}, {!running_core} and {!now}: plain field reads. The
    machine's publishers (its locks, frame pool and trace) share it, so
    a detector subscribed here sees exactly this machine's events. *)


val now : t -> int64
(** Current simulated time in cycles. *)

val advanced : t -> int64
(** Total busy cycles ever consumed through {!advance}, summed across
    cores — unlike {!now}, unaffected by idle gaps or multi-core overlap.
    Counted when the advance is scheduled, so an advance truncated by
    [run ~until] is still included. This is the [elapsed] side of
    {!Trace.audit}. *)

val spawn : ?name:string -> ?affinity:int -> t -> (unit -> unit) -> tid
(** Register a new thread, runnable immediately. [affinity] pins it to one
    core. Threads may spawn further threads. *)

val run : ?until:int64 -> t -> unit
(** Process events until none remain (system quiescent: all threads
    finished or blocked) or simulated time would exceed [until]. When
    stopped by [until], [now] is set to [until]. *)

val live_threads : t -> int
(** Threads spawned and not yet finished (includes blocked ones). *)

val blocked_threads : t -> int
(** Threads currently suspended on a waker. *)

(** {1 Operations available inside a thread}

    These perform effects and must be called from code running under
    {!spawn}; calling them elsewhere raises [Stdlib.Effect.Unhandled]. *)

val advance : int64 -> unit
(** Consume CPU: occupy the current core for the given number of cycles. *)

val advance_direct : t -> int64 -> bool
(** Try to consume [n] cycles for the running thread without performing
    the {!advance} effect: succeeds (returns [true], time passed, core
    still held) exactly when nothing — no ready thread, no heap event at
    or before the target, no [run ~until] deadline, no concurrently
    resumed thread — could observe the difference from the scheduled
    path. Returns [false] without side effects otherwise; the caller
    must then perform {!advance}. This is {!Trace.emit}'s charging fast
    path: on single-runnable-thread stretches it reduces charging to a
    few field writes. *)

val yield : unit -> unit
(** Go to the back of the ready queue (models sched_yield / cooperative
    scheduling points). *)

val sleep : int64 -> unit
(** Release the core and become runnable again after the given delay. *)

val current_time : unit -> int64

type waker
(** One-shot handle that makes a suspended thread runnable again. *)

val suspend : (waker -> unit) -> unit
(** Suspend the current thread, releasing its core. The callback receives
    the waker and typically stores it in a wait queue. Invoking the waker
    twice raises [Invalid_argument]. *)

val wake : waker -> unit
(** Make the suspended thread runnable at the current simulated time. *)

val waker_pending : waker -> bool
(** True until the waker has been used. Lets wait queues skip entries that
    were woken out of band (e.g. by signal delivery). *)

val waker_tid : waker -> tid
(** Tid of the thread a pending waker would resume, or [-1] once used.
    Lets lock release publish the handoff target on the Hb bus. *)
