(** The three benchmark workloads, composed from the public layer
    functions rather than the {!Ufork_workload.Experiments} functions, so a
    tracer can sit at every boundary. At {!default_seed} each one
    reproduces the Experiments rows bit for bit ({!experiment_rows}).

    - [redis-bgsave]: Figs. 3–5 at 100 MB (1000 x 100 KiB values) on
      uFork/CoPA, uFork/full-copy and CheriBSD: populate, BGSAVE, verify
      the dump against the seed's keyspace.
    - [fork-storm-512]: the 512-core sharded-lock point of the SMP sweep;
      one uFork/CoPA forker per core, 12 fork/exit/wait rounds each.
    - [faas-zygote]: Fig. 6 at 3 worker cores, 0.25 simulated s, on
      uFork/CoPA and CheriBSD. *)

type workload = Redis_bgsave | Fork_storm_512 | Faas_zygote

val all : workload list
val name : workload -> string
val of_name : string -> workload option

val default_seed : int
(** The Experiments keyspace seed (0x5eed). *)

val seed_used : workload -> bool
(** Only [redis-bgsave] has random inputs. *)

val systems : workload -> Ufork_workload.Experiments.system list
(** First is the workload's uFork/CoPA machine, which the simulated
    metrics describe. *)

type result = {
  workload : workload;
  seed : int;
  rows : Json.t list;
      (** One simulated-result row per system, in Experiments' shape. *)
  fork_cycles : int64 list;  (** Every fork on the CoPA machine. *)
  sim_ops_per_s : float;
      (** BGSAVEs (1 / save time), functions or forks per simulated
          second, on the CoPA machine. *)
  paper_err_pct : float option;  (** [None]: no paper reference. *)
  attempted : int;
      (** Dumps (redis), forked functions (faas) or forks (storm). *)
  failed : int;
      (** Dumps failing verification, functions exiting non-zero, forks
          that raised. *)
  checks : Machine.check list;
  stats : Machine.stats list;  (** Per system, in {!systems} order. *)
  run_ns : int;  (** Host ns inside the engine runs. *)
  functions_completed : int;
  dump_bytes : int;  (** Size of the CoPA machine's dump file. *)
  kv_sets : int;
  mpy_instructions : int;
}

val run :
  ?scale:int -> Tracer.t -> workload -> seed:int -> at_run:(unit -> unit) ->
  result
(** Run every system of the workload once. [at_run] is called before
    each engine run. [scale] (default 1) divides the workload's size
    (redis entries, storm forkers, faas window) for quick tests; the
    Experiments rows are only comparable at scale 1. *)

val experiment_rows : ?scale:int -> workload -> Json.t list
(** The same rows from the {!Ufork_workload.Experiments} functions, which
    always use {!default_seed}. *)
