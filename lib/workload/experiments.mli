(** Drivers for every experiment in the paper's evaluation (§5).

    Each function boots the systems involved, runs the workload inside the
    simulation, and returns structured rows. They are shared by the
    benchmark harness ([bench/main.exe]), the CLI ([bin/ufork_sim.exe])
    and the integration tests. All runs are deterministic. *)

(** Which OS serves the workload. *)
type system =
  | Ufork of Ufork_core.Strategy.t
  | Ufork_toctou of Ufork_core.Strategy.t  (** full isolation + TOCTTOU *)
  | Cheribsd
  | Nephele
  | Linux_ref

val system_label : system -> string

(** {1 The run value}

    Harness-wide options live in one [run] record. Install one with
    {!with_run}; every experiment booted inside reads it, so one
    [--cores] or [--trace-out] applies uniformly across the systems an
    experiment compares. Outside any [with_run] the run is {!empty_run}. *)

(** Trace sink encoding: one JSON record per line, or a Chrome
    [about:tracing] / Perfetto trace-event file. *)
type trace_format = Jsonl | Chrome

type run = {
  cores : int option;
      (** Boot every machine with this many cores instead of each
          experiment's own default. *)
  record : bool;
      (** Record mechanism events even without a trace sink, so the
          protocol linter ({!Ufork_analysis.Lint}) has a stream to
          check. *)
  trace_out : (string * trace_format) option;
      (** Record every machine and write them all to this file, oldest
          first, rewritten after each run. *)
  profile_out : string option;
      (** Write every machine's folded-stack flamegraph text to this
          file, rewritten after each run. *)
  profiles : bool;
      (** Keep every machine's trace for {!profiled_traces}, with no
          file output. *)
  sample_interval : int64 option;
      (** Virtual-time stat sampling interval in cycles (see
          {!Ufork_sas.Kernel.enable_stat_sampling}). *)
  detect : Ufork_analysis.Invariant.t list;
      (** Runtime invariants to arm: [Data_race] (R1, the
          happens-before detector), [Lock_order] (R2, the acquisition
          graph), [Lock_stall] (R3, whole-run critical-path blame) and
          [Cap_provenance] (R4: the capflow stream detector, a scan at
          every fork's end, and the provenance clause of the final
          sweep). Every armed detector subscribes to the booted
          machine's own bus; a violation fails the run with
          {!Ufork_analysis.Checker.Unsafe}. *)
  causal : bool;
      (** Collect the causal graph ({!Ufork_analysis.Causal}) for
          {!causal_graph}, without asserting R3. *)
  chaos : string option;
      (** One {!chaos_table} row to inject on every machine. The row
          also arms the detector its [expect] invariant needs. *)
}

val empty_run : run
(** Nothing armed, nothing recorded, every experiment's own core count. *)

val current_run : unit -> run

val with_run : run -> (unit -> 'a) -> 'a
(** [with_run r f] runs [f] with [r] installed and restores the
    previous run afterwards, also when [f] raises. The traces a sink or
    {!profiled_traces} collects, and the {!causal_graph}, belong to the
    outermost [with_run]: a nested one adds to them. *)

val profiled_traces : unit -> Ufork_sim.Trace.t list
(** Machines booted under the current run with [profiles] or
    [profile_out] set, oldest first. *)

val causal_graph : unit -> Ufork_analysis.Causal.t option
(** The causal collector of the most recent boot under the current run,
    if it collected one. *)

val write_artifact : string -> (out_channel -> unit) -> unit
(** Write one output artifact via {!Ufork_util.Fsout.with_out}: missing
    parent directories are created, and a filesystem failure prints a
    clean one-line error and exits 1 — no backtrace. Shared by the trace
    and profile sinks here and the CLI/bench front ends. *)

(** {1 Observer workloads} *)

(** The one registry of per-system workloads: the small runs the
    observed-run front end ([ufork_sim run]), the chaos controls and the
    observer tests share. Fig. 8's hello, a 5 MB Redis BGSAVE
    (50 x 100 KiB), Unixbench with 50 spawns and 500 round trips, the
    fork storm (one forker per core, 4 forks each), Fig. 6's FaaS zygote
    running float_operation on 1 worker core and Fig. 7's Nginx with 1
    worker on 1 core, both over a 0.05 s window. *)
type workload = Hello | Redis | Unixbench | Storm | Faas | Nginx

val workloads : (string * workload) list
(** Command-line names, in display order: the one list [ufork_sim run]
    parses and prints in its help. *)

val workload_name : workload -> string

val check : system -> workload -> (string, string) result
(** Run one workload under the current run. [Ok summary] is a one-line
    summary of its result; every failed check becomes [Error report]: an
    invariant violation, a failed accounting or critical-path audit, or
    an architectural capability violation. The storm uses the run's
    [cores] (default 4) forkers. The current run's sinks are written
    either way. *)

(** {1 The chaos table}

    Each fault injection certifies one detector: its control run must
    fail with exactly the row's invariant, and the same run without the
    injection must pass. *)

type chaos = {
  name : string;
  expect : Ufork_analysis.Invariant.t;
      (** The only invariant the control may report; injecting the row
          arms its detector. *)
  subject : string option;
      (** When set, the subject the violation must accuse. *)
  doc : string;  (** What the injection does, in one line. *)
  control : system * workload * int;
      (** The system, workload and cores of the must-fail run. *)
  arm : Ufork_sas.Kernel.t -> unit;
      (** Inject into a freshly booted machine. *)
}

val chaos_table : chaos list
(** no-bkl and unshard (R1), invert-shard-order (R2), stall-shard (R3),
    skip-rebase, heap-smuggle and leak-root (R4). *)

val find_chaos : string -> chaos option

(** {1 Domain-parallel sweeps} *)

val parmap : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [parmap ~jobs f items] maps [f] over [items] from up to [jobs]
    OCaml domains, returning results in item order. Every experiment
    machine is self-contained, so each point's result is bit-identical
    to what the serial [List.map] produces — the qcheck suite pins this
    property; a raising point re-raises deterministically (first failure
    in item order). Degrades to serial when [jobs <= 1] and whenever the
    current run, apart from its core count, differs from {!empty_run}. *)

val reset_emits : unit -> unit
(** Zero the cross-run emitted-events accumulator below. *)

val emits_total : unit -> int
(** Mechanism events emitted by every machine finished (via the
    end-of-run audit) since the last {!reset_emits}, summed across
    domains — the numerator of the events bench's simulated-events per
    host-second metric. *)

(** {1 The machine lifecycle}

    Every harness run — the experiments below, the CLI and bench front
    ends, the golden scenarios — boots its machine with {!boot}, runs it,
    and ends in {!finish_run}. {!run_main} is the whole lifecycle for the
    common case of one main process whose result the caller wants. *)

(** A booted machine behind one interface, whatever the flavour. *)
type booted = {
  kernel : Ufork_sas.Kernel.t;
  engine : Ufork_sim.Engine.t;
  start :
    ?affinity:int ->
    image:Ufork_sas.Image.t ->
    (Ufork_sas.Api.t -> unit) ->
    Ufork_sas.Uproc.t;
      (** Create an initial process and schedule its main thread. *)
  run : ?until:int64 -> unit -> unit;
      (** Run the machine until quiescence (or the given time). *)
  provenance : bool;  (** Capflow is armed: the final sweep checks R4. *)
  violations : unit -> Ufork_analysis.Invariant.violation list;
      (** What the detectors armed at boot found so far. *)
}

val boot : ?cores:int -> ?config:Ufork_sas.Config.t -> system -> booted
(** Boot [system] with [cores] (default 4; the current run's [cores]
    wins) and the flavour's default config unless [config] overrides it:
    [Config.ufork_fast] for μFork, [Config.ufork_default] (full
    isolation + TOCTTOU) for [Ufork_toctou], Linux's config and costs for
    [Linux_ref]. The current run's detectors, chaos row, recording and
    sampling are armed on the machine. *)

val finish_run : booted -> unit
(** End a run: the accounting audit, the state sanitizer, the armed
    detectors' verdict (see below), then the current run's trace and
    profile sinks are rewritten — also when a check fails, before its
    exception propagates. *)

val run_main :
  ?cores:int ->
  ?config:Ufork_sas.Config.t ->
  ?affinity:int ->
  system ->
  image:Ufork_sas.Image.t ->
  (Ufork_sas.Api.t -> 'a) ->
  'a * booted
(** [run_main system ~image main] boots [system], starts [main] as its
    one process (pinned to core [affinity] if given), runs the machine to
    quiescence and calls {!finish_run}. Returns [main]'s result and the
    finished machine. Fails if [main] never returned. *)

(** {1 Accounting audit and state sanitizer}

    Every experiment run checks {!Ufork_sim.Trace.audit} before returning:
    the engine's busy cycles must equal the cycles charged through the
    event bus, with zero tolerance. A failure raises
    {!Ufork_sim.Trace.Audit_failure}.

    Alongside the audit, every run ends with
    {!Ufork_analysis.Checker.assert_safe}: the machine-state sanitizer
    sweeps frames, page tables, stored capabilities and the process
    table (invariants S1–S10), and — when recording is on — the
    protocol linter replays the event stream (L1–L5). A violation
    raises {!Ufork_analysis.Checker.Unsafe} with the full report. *)

(** {1 Redis (Fig. 3, 4, 5)} *)

type redis_row = {
  system : system;
  db_label : string;
  db_bytes : int;
  entries : int;
  save_ms : float;  (** Fig. 3: overall background-save time. *)
  fork_us : float;  (** Fig. 4: latency of the fork call itself. *)
  child_mb : float;  (** Fig. 5: memory attributable to the forked child. *)
  dump_ok : bool;  (** The dump parsed back and matched the keyspace. *)
}

val redis_run :
  system -> entries:int -> value_len:int -> db_label:string -> redis_row
(** Populate, BGSAVE, verify the dump against the expected keyspace. *)

val redis_sweep :
  systems:system list ->
  ?sizes:(string * int * int) list ->
  ?jobs:int ->
  unit ->
  redis_row list
(** Default sizes: {!Keyspace.db_sizes_of_paper}. [jobs] fans the
    (system, size) points out via {!parmap} (default 1: serial). *)

(** {1 FaaS (Fig. 6)} *)

type faas_row = {
  system : system;
  worker_cores : int;
  throughput_per_s : float;
  completed : int;
}

val faas_run :
  system ->
  worker_cores:int ->
  ?window_s:float ->
  ?program:Ufork_apps.Mpy.program ->
  ?locals:int ->
  unit ->
  faas_row
(** Default window: 1 simulated second (rates are per second either
    way). Default [program]: FunctionBench float_operation sized to
    ~0.6 ms; [locals] sizes the workers' interpreter locals (default
    {!Ufork_apps.Mpy.run}'s). *)

(** {1 Nginx (Fig. 7)} *)

type nginx_row = {
  system : system;
  cores : int;
  workers : int;
  requests_per_s : float;
}

val nginx_run :
  system -> cores:int -> workers:int -> ?window_s:float -> ?connections:int ->
  unit -> nginx_row

(** {1 hello-world microbenchmarks (Fig. 8)} *)

type hello_row = {
  system : system;
  fork_latency_us : float;
  child_memory_mb : float;
}

val hello_run : system -> hello_row
val fig8 : unit -> hello_row list
(** μFork (CoPA), CheriBSD, Nephele. *)

(** {1 Unixbench (Fig. 9)} *)

type unixbench_row = {
  system : system;
  spawn_ms : float;  (** Fig. 9 left: 1000 fork/exit/wait rounds. *)
  context1_ms : float;  (** Fig. 9 right: 100k pipe round trips. *)
}

val unixbench_run :
  system -> spawn_iters:int -> context1_iters:int -> unixbench_row

val fig9 : ?spawn_iters:int -> ?context1_iters:int -> unit -> unixbench_row list
(** Defaults: 1000 spawns, 100_000 round trips, for μFork and CheriBSD. *)

(** {1 SMP fork scaling ([BENCH_smp.json])} *)

type smp_row = {
  system : system;
  cores : int;
  locks : string;  (** the booted config's lock mode: "bkl" or "sharded" *)
  forks : int;  (** children forked and reaped across every forker *)
  forks_per_s : float;
  fault_p50_us : float;  (** fault-service span latency quantiles *)
  fault_p99_us : float;
  steals : int;  (** engine cross-queue work steals over the run *)
}

val fork_storm_run :
  ?config:Ufork_sas.Config.t -> system -> cores:int -> iters:int -> unit ->
  smp_row
(** One forking μprocess per core, each forking and reaping [iters]
    children that dirty a two-page working set. The concurrent forkers
    contend on every sharded kernel lock, making this both the
    fork-throughput scaling probe ([bench --cores-sweep]) and the
    workload the CI race job replays under the detector. [?config]
    overrides the flavour's default — pass
    [Config.with_lock_mode Big_kernel_lock ...] for the BKL baseline. *)

(** {1 Ablations beyond the paper} *)

type ablation_row = { label : string; value : float; unit_ : string }

val ablate_proactive : unit -> ablation_row list
(** Fork latency and post-fork fault count with and without the proactive
    GOT/metadata copy. *)

val ablate_syscall_entry : unit -> ablation_row list
(** Unixbench Context1 on μFork with sealed-capability entries vs forced
    trap entries — the cost of not having CHERI sealed entry points. *)

val ablate_isolation : unit -> ablation_row list
(** Redis 10 MB save time under No/Fault/Full isolation (+TOCTTOU). *)

(** {1 Fragmentation study (§6)} *)

type fragmentation_row = {
  scenario : string;
  churn : int;
  arena_mb : float;
  live_mb : float;
}

val ablate_fragmentation : ?churn:int -> unit -> fragmentation_row list
(** Virtual-arena high-water vs live bytes after fork/exit churn with
    uniform-size processes (areas recycle perfectly) and with interleaved
    mixed sizes (first-fit holes accumulate) — quantifying §6's
    fragmentation discussion. *)
