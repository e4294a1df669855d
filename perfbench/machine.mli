(** One booted system of a workload, driven through the public layer
    entry points — {!Ufork_core.Os.boot} / {!Ufork_baselines.Monolithic.boot},
    {!Ufork_core.System.start} and [run] — with the end-of-run checks the
    Experiments functions make ({!Ufork_sim.Trace.audit},
    {!Ufork_analysis.Checker.assert_safe}) and a read-out of every
    per-layer counter after the run. *)

type t

val boot :
  Tracer.t -> Ufork_workload.Experiments.system -> cores:int -> t
(** Boots exactly as {!Ufork_workload.Experiments} does (μFork on
    [Config.ufork_fast], CheriBSD on its defaults) inside a [core] (μFork)
    or [baselines] (CheriBSD) span, and resets the process-global lock
    contention registry so {!stats} sees this machine's locks only.
    Raises [Invalid_argument] for the systems no workload uses. *)

val system : t -> Ufork_core.System.t

val start :
  Tracer.t ->
  t ->
  ?affinity:int ->
  image:Ufork_sas.Image.t ->
  (Ufork_sas.Api.t -> unit) ->
  Ufork_sas.Uproc.t
(** {!Ufork_core.System.start} in a [core] span. The main receives the
    fork-timed and (when tracing) span-wrapped API. *)

val fork_cycles : t -> int64 list
(** Simulated latency of every fork call made through the API handed
    out by {!start} (in call order), read with [api.now] around the call
    — [now] charges nothing, so reading it does not perturb the run. *)

val run : Tracer.t -> t -> at_run:(unit -> unit) -> unit
(** Call [at_run] (host code: the setup clock stops there), then run the
    engine to quiescence in a [sim] span. *)

val run_ns : t -> int
(** Host ns spent inside the engine run. *)

type check = { name : string; ok : bool; detail : string }

val finish : Tracer.t -> t -> check list
(** The accounting audit and the state sanitizer, each in an
    [analysis] span, reported instead of raised. *)

type stats = {
  label : string;
  cores : int;
  emits : int;  (** {!Ufork_sim.Trace.emits}. *)
  charged : int64;  (** {!Ufork_sim.Trace.total_charged}. *)
  now : int64;  (** Simulated clock at the end of the run. *)
  steals : int;
  peak_frames : int;
  counters : (string * int) list;  (** The meter, key-sorted. *)
  spans : (string * int * int64) list;
      (** Simulated span histograms: name, instances, total cycles. *)
  fault_p50 : int64;  (** ["fault.service"] quantiles, cycles. *)
  fault_p99 : int64;
  locks : Ufork_sim.Sync.contention list;
}

val stats : t -> stats
val counter : stats -> string -> int
val span_count : stats -> string -> int
val span_cycles : stats -> string -> int64
