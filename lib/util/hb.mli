(** Happens-before instrumentation bus.

    Publishers (the simulation engine, locks, the frame pool, page
    tables, the gauge surface) report ordering edges and shared-state
    mutations on their machine's bus; any number of analyzers subscribe
    to the bus of the machine they check. With no subscriber the
    publishers pay a single read and allocate nothing, so golden
    accounting is untouched.

    The module sits in lib/util so both lib/sim and lib/mem can publish
    without a dependency cycle. *)

type loc =
  | Frame of int  (** a physical frame's refcount/pool state, by frame id *)
  | Pte of { table : int; vpn : int }  (** one page-table entry *)
  | Gauge of string  (** a derived-meter gauge key *)
  | Pool  (** the shared global free-frame pool behind the per-core freelists *)

type event =
  | Spawn of { parent : int; child : int }
  | Wake of { by : int; target : int }
  | Acquire of { tid : int; lock : int }
  | Release of { tid : int; lock : int }
  | Write of { tid : int; loc : loc; site : string }
  | Block of { tid : int }
      (** the thread suspended (lock wait, condition wait, sleep) *)
  | Contend of { tid : int; lock : int; holder : int }
      (** [tid] found [lock] held by [holder]; a [Block] follows *)
  | Handoff of { from_ : int; to_ : int; lock : int }
      (** direct ownership transfer: the next [Wake { target = to_ }]
          delivers [lock] *)
  | Steal of { tid : int; core : int }
      (** work stealing re-homed [tid] onto [core] *)
  | Ipi of { by : int; remotes : int }
      (** TLB-shootdown batch interrupting [remotes] remote cores *)
  | Span_open of { tid : int; name : string }
      (** trace span boundary (one path segment, innermost name only) *)
  | Span_close of { tid : int; name : string }
  | Cap_store of { tid : int; addr : int; prov : int }
      (** a tagged capability with provenance stamp [prov] landed at
          [addr]; consumed by the capflow R4 taint invariant *)
  | Cap_load of { tid : int; addr : int; prov : int }
      (** a tagged capability was loaded back out of memory *)

type t
(** One machine's bus: its listeners, its lock names and its clock. *)

val create :
  ?tid:(unit -> int) -> ?core:(unit -> int) -> ?now:(unit -> int64) -> unit -> t
(** A bus with no subscriber. The engine passes readers of its running
    thread, core and clock; the defaults (no thread: [-1], time [0L])
    suit a bus no simulated thread publishes on — a lock or frame pool
    built outside any machine, or a unit test replaying events. *)

val tid : t -> int
(** The current simulated thread id, or a negative value outside any
    simulated thread. *)

val core : t -> int
(** The core the current simulated thread occupies, or a negative value
    outside any simulated thread. Lets publishers below lib/sim (e.g.
    the frame pool's per-core freelists) pick a core bucket without a
    dependency cycle. *)

val now : t -> int64
(** The machine's simulated clock. *)

val set_lock_name : t -> int -> string -> unit
(** Register a stable resource name for a lock id (e.g.
    ["lock.frame_pool"]). Named locks appear by name in race reports. *)

val lock_name : t -> int -> string option

val pp_lock : t -> Format.formatter -> int -> unit
(** ["<name> (lock <id>)"] when the id is named, ["lock <id>"] otherwise. *)

val on : t -> bool
(** True once a subscriber is armed. Publishers guard event
    construction behind this so the off state allocates nothing. *)

val subscribe : t -> (event -> unit) -> unit
(** Add a listener. Listeners stack: every subscriber sees every event,
    in subscription order, for the life of the bus. *)

val emit : t -> event -> unit
(** Deliver to every subscriber. Call under [if on bus then ...] when
    building the event allocates. *)

val pp_loc : Format.formatter -> loc -> unit
