(** The Zygote FaaS serving loop (Fig. 6).

    The language runtime is initialized once in a Zygote μprocess
    ({!Mpy.zygote_init}); each incoming request is served by forking the
    Zygote into a child that runs the function and exits (U2 + U5). A
    coordinator thread forks as fast as the worker cores consume functions;
    throughput is fork-bound when fork latency exceeds function compute
    spread over the workers. *)

type result = {
  completed : int;  (** Functions finished inside the window. *)
  window_cycles : int64;
  throughput_per_s : float;
  forks : int;
}

val coordinator :
  ?locals:int ->
  Ufork_sas.Api.t ->
  max_workers:int ->
  window_cycles:int64 ->
  program:Mpy.program ->
  result
(** Run as the Zygote process main: initialize the runtime, then fork one
    child per request keeping [max_workers] in flight, reaping completions,
    until the window closes. Functions still in flight at the deadline are
    reaped but not counted. [locals] sizes each worker's interpreter
    locals (see {!Mpy.run}). *)

val run_function : Ufork_sas.Api.t -> ?locals:int -> Mpy.program -> unit
(** What a forked worker does: validate the inherited runtime state, run
    the program with [locals] interpreter locals, exit 0 (exit 1 on a
    runtime error). *)
