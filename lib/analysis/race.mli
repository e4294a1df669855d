(** Dynamic happens-before race detection for the simulated multicore.

    Subscribes to the {!Ufork_util.Hb} instrumentation bus and replays
    its events through vector clocks: [Spawn], [Wake] and lock
    [Release]→[Acquire] hand-offs draw happens-before edges; [Write]
    events to page-table entries and trace gauges are checked against
    the location's last write (FastTrack-style epochs). Two conflicting
    writes with no ordering edge are a data race — invariant R1.

    Frame-refcount writes are exempt by model: they stand for atomic
    read-modify-writes on internally synchronized counters (the
    [kref]/[atomic_t] discipline), which cannot data-race and which
    synchronize with each other.

    Subscribe {!handle} on the {!Ufork_util.Hb} bus to arm it; the
    disarmed bus costs a single branch per instrumentation point and
    perturbs neither scheduling nor golden accounting. *)

type t

type access = {
  tid : int;
  epoch : int;
  site : string;
  held : int list;
      (** lock ids held at the write, innermost first; named via the
          {!Ufork_util.Hb} lock-name registry in reports *)
}

type race = {
  loc : Ufork_util.Hb.loc;
  first : access;  (** the earlier (unordered) write *)
  second : access;  (** the write that exposed the race *)
}

val create : unit -> t

val handle : t -> Ufork_util.Hb.event -> unit
(** Feed one bus event; [Hb.subscribe (handle d)] arms the detector
    beside any other subscriber. *)

val races : t -> race list
(** Every detected race, oldest first; at most one per location. *)

val events_seen : t -> int
(** Bus events processed — a sanity probe that instrumentation fired. *)

val violations : t -> Invariant.violation list
(** {!races} rendered as R1 {!Invariant.violation}s for
    {!Checker}-style reporting. *)
