module E = Ufork_workload.Experiments
module Api = Ufork_sas.Api
module Config = Ufork_sas.Config
module Kernel = Ufork_sas.Kernel
module System = Ufork_core.System
module Os = Ufork_core.Os
module Monolithic = Ufork_baselines.Monolithic
module Engine = Ufork_sim.Engine
module Trace = Ufork_sim.Trace
module Sync = Ufork_sim.Sync
module Histogram = Ufork_sim.Histogram
module Checker = Ufork_analysis.Checker

type t = {
  system : E.system;
  sys : System.t;
  mutable forks : int64 list;  (** Newest first. *)
  mutable run_ns : int;
}

let boot tracer system ~cores =
  Sync.reset_lock_contention ();
  let sys =
    match system with
    | E.Ufork strategy ->
        Tracer.span tracer Layer.Core "boot" (fun () ->
            Os.system (Os.boot ~cores ~config:Config.ufork_fast ~strategy ()))
    | E.Cheribsd ->
        Tracer.span tracer Layer.Baselines "boot" (fun () ->
            Monolithic.system (Monolithic.boot ~cores ()))
    | s -> invalid_arg ("Machine.boot: " ^ E.system_label s)
  in
  Tracer.set_engine tracer (System.engine sys);
  { system; sys; forks = []; run_ns = 0 }

let system m = m.sys

(* Every fork through the API (the child's too) is timed on the
   simulated clock; [now] is a plain read that charges nothing. *)
let rec timed m (api : Api.t) =
  {
    api with
    Api.fork =
      (fun body ->
        let t0 = api.Api.now () in
        let pid = api.Api.fork (fun capi -> body (timed m capi)) in
        m.forks <- Int64.sub (api.Api.now ()) t0 :: m.forks;
        pid);
  }

let start tracer m ?affinity ~image main =
  Tracer.span tracer Layer.Core "start" (fun () ->
      System.start m.sys ?affinity ~image
        (Tracer.fiber tracer (fun api ->
             main (Tracer.wrap_api tracer (timed m api)))))

let fork_cycles m = List.rev m.forks

let run tracer m ~at_run =
  at_run ();
  let t0 = Monotonic_clock.now () in
  Tracer.span tracer Layer.Sim "run" (fun () -> System.run m.sys);
  m.run_ns <- Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0)

let run_ns m = m.run_ns

type check = { name : string; ok : bool; detail : string }

let check name f =
  match f () with
  | () -> { name; ok = true; detail = "" }
  | exception Trace.Audit_failure msg -> { name; ok = false; detail = msg }
  | exception Checker.Unsafe msg -> { name; ok = false; detail = msg }

let finish tracer m =
  let k = System.kernel m.sys in
  let label = E.system_label m.system in
  (* In Experiments' order: the audit, then the sanitizer. *)
  let audit =
    check ("audit " ^ label) (fun () ->
        Tracer.span tracer Layer.Analysis "audit" (fun () ->
            Trace.audit (Kernel.trace k) ~costs:(Kernel.costs k)
              ~elapsed:(Engine.advanced (System.engine m.sys))))
  in
  let sanitize =
    check ("sanitize " ^ label) (fun () ->
        Tracer.span tracer Layer.Analysis "sanitize" (fun () ->
            Checker.assert_safe k))
  in
  [ audit; sanitize ]

type stats = {
  label : string;
  cores : int;
  emits : int;
  charged : int64;
  now : int64;
  steals : int;
  peak_frames : int;
  counters : (string * int) list;
  spans : (string * int * int64) list;
  fault_p50 : int64;
  fault_p99 : int64;
  locks : Sync.contention list;
}

let stats m =
  let k = System.kernel m.sys in
  let tr = Kernel.trace k in
  let e = System.engine m.sys in
  let quant p =
    match Trace.span_histogram tr "fault.service" with
    | Some h -> Histogram.quantile h p
    | None -> 0L
  in
  {
    label = E.system_label m.system;
    cores = Engine.cores e;
    emits = Trace.emits tr;
    charged = Trace.total_charged tr;
    now = Engine.now e;
    steals = Engine.steals e;
    peak_frames = Ufork_mem.Phys.peak_frames (Kernel.phys k);
    counters = Ufork_sim.Meter.to_list (Kernel.meter k);
    spans =
      List.map
        (fun (name, h) -> (name, Histogram.count h, Histogram.sum h))
        (Trace.span_histograms tr);
    fault_p50 = quant 0.5;
    fault_p99 = quant 0.99;
    locks = Sync.lock_contention ();
  }

let counter s key = Option.value (List.assoc_opt key s.counters) ~default:0

let span_find s name =
  List.find_opt (fun (n, _, _) -> String.equal n name) s.spans

let span_count s name =
  match span_find s name with Some (_, c, _) -> c | None -> 0

let span_cycles s name =
  match span_find s name with Some (_, _, c) -> c | None -> 0L
