(** The per-layer metrics a run reports, by name. Counters are read on
    the workload's uFork/CoPA machine (the first of
    {!Workloads.systems}); host times come from the tracer and cover
    every machine of the run. *)

val quantile : float -> int64 list -> float
(** Nearest-rank percentile ([p] in [0, 100]), as
    {!Ufork_util.Stats.percentile}; [nan] on no samples. *)

val sim_layer : Workloads.result -> (string * float) list
(** Simulated counters per layer: [mem.*], [core.*] (the §5 fork
    breakdown as mean cycles per fork, relocation), [sim.*] (events,
    utilization, steals, locks), [sas.*] (syscalls, faults) and
    [apps.*]. Deterministic. *)

val host_layer : Tracer.t -> (string * float) list
(** Host time and minor-heap words per layer of a finished traced run:
    [layer.<name>.self_s] for every {!Layer.t}, the traced wall, and the
    [sas]/[apps]/[workload]/[analysis]/[sim] span totals. *)

val name_ok : string -> bool
(** A metric name the benchmark contract accepts: non-empty, made of
    letters, digits, [_], [.] and [-]. *)
