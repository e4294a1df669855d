(** Host-time spans at the layer boundaries the benchmark owns.

    A tracer charges every host-time slice between two consecutive span
    boundaries (an enter or an exit, on any green thread) to exactly one
    layer: the layer on top of the span stack of the thread that crossed
    the earlier boundary. The per-layer self times therefore tile the
    traced wall — from {!create} to {!finish} — with zero residual.

    Span stacks are kept per engine thread ({!Ufork_sim.Engine.running_tid};
    [-1] for the host code around the engine). A green-thread switch can
    only happen inside an engine operation, which the apps reach through
    an {!Ufork_sas.Api.t} call: the dispatch and whatever the resumed
    thread runs before its next boundary are charged to the [sas] span
    that suspended, not to the app span below it.

    A disabled tracer ({!off}) runs every wrapped function directly and
    records nothing. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span of its thread. *)
  name : string;
  layer : Layer.t;
  tid : int;  (** Engine thread id, [-1] outside the engine. *)
  t0_ns : int;  (** Host start, ns since {!create}. *)
  mutable t1_ns : int;  (** Host end; [-1] while open. *)
  sim0 : int64;  (** Simulated clock at entry (cycles). *)
  mutable sim1 : int64;
  words0 : float;  (** Minor-heap words allocated so far, at entry. *)
  mutable words1 : float;
}

type t

val create :
  ?clock:(unit -> int) -> ?words:(unit -> float) -> run_id:string -> unit ->
  t
(** Start tracing now. [clock] (default: the monotonic clock, ns) and
    [words] (default: [Gc.minor_words]) are injectable for tests.
    Allocation is counted on the minor heap only: blocks over 256 words
    go straight to the major heap and show in a run's total
    ([Gc.quick_stat]), not in a layer's share. *)

val off : t
(** The disabled tracer. *)

val set_engine : t -> Ufork_sim.Engine.t -> unit
(** The machine whose thread ids and simulated clock spans record from
    now on (machines of one workload run one after another). *)

val span : t -> Layer.t -> string -> (unit -> 'a) -> 'a
(** Run [f] inside a span. Exception- and suspension-safe. *)

val fiber : ?base:Layer.t -> t -> ('a -> 'b) -> 'a -> 'b
(** Wrap the body of a green thread (a process main or a fork child):
    outside its own spans it is charged to [base] (default [Bench]), and
    once it returns or raises, the kernel's process-exit path and the
    engine's next dispatch are charged to [sas]. *)

val wrap_api : t -> Ufork_sas.Api.t -> Ufork_sas.Api.t
(** Every field as a [sas] span named after the field; [fork] and
    [spawn] hand the child a wrapped record too, inside a {!fiber} whose
    base is the layer that made the call. *)

val finish : t -> unit
(** Close the traced wall. Raises [Failure] if a span is still open. *)

val wall_ns : t -> int
(** {!create} to {!finish}. *)

val self_ns : t -> Layer.t -> int
(** Host ns charged to the layer; summed over {!Layer.all} this is
    exactly {!wall_ns}. *)

val self_words : t -> Layer.t -> float
(** Minor-heap words allocated while the layer was charged. *)

val spans : t -> span list
(** Every span, in entry order. *)

val total_ns : t -> string -> int
(** Inclusive host ns of every closed span with this name. *)

val total_words : t -> string -> float

val to_jsonl : t -> out_channel -> unit
(** One JSON object per span. *)
