module Units = Ufork_util.Units
module Costs = Ufork_sim.Costs
module Engine = Ufork_sim.Engine
module Trace = Ufork_sim.Trace
module Config = Ufork_sas.Config
module Image = Ufork_sas.Image
module Api = Ufork_sas.Api
module Uproc = Ufork_sas.Uproc
module Kernel = Ufork_sas.Kernel
module Vfs = Ufork_sas.Vfs
module Fdesc = Ufork_sas.Fdesc
module Strategy = Ufork_core.Strategy
module System = Ufork_core.System
module Os = Ufork_core.Os
module Monolithic = Ufork_baselines.Monolithic
module Vmclone = Ufork_baselines.Vmclone
module Kvstore = Ufork_apps.Kvstore
module Rdb = Ufork_apps.Rdb
module Mpy = Ufork_apps.Mpy
module Faas = Ufork_apps.Faas
module Httpd = Ufork_apps.Httpd
module Unixbench = Ufork_apps.Unixbench
module Hello = Ufork_apps.Hello
module Checker = Ufork_analysis.Checker
module Race = Ufork_analysis.Race
module Lockdep = Ufork_analysis.Lockdep
module Causal = Ufork_analysis.Causal
module Capflow = Ufork_analysis.Capflow
module Invariant = Ufork_analysis.Invariant
module Capability = Ufork_cheri.Capability
module Addr = Ufork_mem.Addr
module Page = Ufork_mem.Page
module Phys = Ufork_mem.Phys
module Pte = Ufork_mem.Pte
module Page_table = Ufork_mem.Page_table

type system =
  | Ufork of Strategy.t
  | Ufork_toctou of Strategy.t
  | Cheribsd
  | Nephele
  | Linux_ref

let system_label = function
  | Ufork s -> Printf.sprintf "uFork/%s" (Strategy.to_string s)
  | Ufork_toctou s -> Printf.sprintf "uFork/%s+TOCTTOU" (Strategy.to_string s)
  | Cheribsd -> "CheriBSD"
  | Nephele -> "Nephele"
  | Linux_ref -> "Linux (ref)"

(* A booted system behind a uniform interface, plus what its end-of-run
   check needs from the detectors armed at boot. *)
type booted = {
  kernel : Kernel.t;
  engine : Engine.t;
  start :
    ?affinity:int -> image:Image.t -> (Api.t -> unit) -> Uproc.t;
  run : ?until:int64 -> unit -> unit;
  provenance : bool;  (* capflow armed: the sweep reports R4 *)
  violations : unit -> Invariant.violation list;  (* armed detectors *)
}

(* {1 The run value}

   Front ends and tests describe a run once as a [run] record and
   install it with [with_run]; every [boot] inside reads it, so one
   [--cores]/[--trace-out] applies uniformly across the systems an
   experiment compares. *)

type trace_format = Jsonl | Chrome

type run = {
  cores : int option;
  record : bool;
  trace_out : (string * trace_format) option;
  profile_out : string option;
  profiles : bool;
  sample_interval : int64 option;
  detect : Invariant.t list;
  causal : bool;
  chaos : string option;
}

let empty_run =
  {
    cores = None;
    record = false;
    trace_out = None;
    profile_out = None;
    profiles = false;
    sample_interval = None;
    detect = [];
    causal = false;
    chaos = None;
  }

(* What an installed run collects. Nested [with_run]s share it, so a
   sink keeps every machine booted under the outermost run: traces
   oldest first and the latest causal collector. *)
type collected = {
  mutable traced : Trace.t list;
  mutable warned_dropped : int;
      (* drop count already reported, so each overflow warns once *)
  mutable profiled : Trace.t list;
  mutable graph : Causal.t option;
}

let installed : (run * collected) option ref = ref None
[@@ufork.global_ok "the front end installs one run for the whole process"]

let current_run () =
  match !installed with Some (r, _) -> r | None -> empty_run

let with_run r f =
  let outer = !installed in
  let c =
    match outer with
    | Some (_, c) -> c
    | None -> { traced = []; warned_dropped = 0; profiled = []; graph = None }
  in
  installed := Some (r, c);
  Fun.protect f ~finally:(fun () -> installed := outer)

let collected_or default f =
  match !installed with Some (_, c) -> f c | None -> default

let profiled_traces () = collected_or [] (fun c -> c.profiled)
let causal_graph () = collected_or None (fun c -> c.graph)

(* {2 Workloads}

   The small runs the observed-run front end ([ufork_sim run]) and the
   chaos controls name. *)

type workload = Hello | Redis | Unixbench | Storm | Faas | Nginx

let workloads =
  [
    ("hello", Hello); ("redis", Redis); ("unixbench", Unixbench);
    ("storm", Storm); ("faas", Faas); ("nginx", Nginx);
  ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* {2 The chaos table}

   One row per fault injection. [arm] runs on the freshly booted
   machine; the row's [expect] invariant names the detector [boot] arms
   alongside it, so a chaos run can never pass for want of a detector.
   [control] is the (system, workload, cores) run that must fail with
   exactly [expect] — and pass without the injection. *)

type chaos = {
  name : string;
  expect : Invariant.t;
  subject : string option;
  doc : string;
  control : system * workload * int;
  arm : Kernel.t -> unit;
}

let spawn_rogue k name f = ignore (Engine.spawn (Kernel.engine k) ~name f)

(* A rogue thread retries until a process is running, then plants the
   kernel root in its GOT. *)
let leak_root k =
  spawn_rogue k "chaos-leak-root" (fun () ->
      let rec attempt budget =
        Engine.sleep 500L;
        if (not (Kernel.chaos_leak_root k)) && budget > 0 then
          attempt (budget - 1)
      in
      attempt 100)

(* The first relocated page of the first eager fork copy gets one
   rebased capability put back as the parent had it: parent target,
   parent provenance — a skipped §4.2 rebase. *)
let skip_rebase k =
  let pending = ref true in
  Kernel.watch_forks k
    {
      Kernel.no_fork_watch with
      page_relocated =
        (fun ~child:_ ~src ~dst ->
          Page.iter_caps src (fun g cap ->
              let off = g * Addr.granule_size in
              let moved = Page.load_cap dst ~off in
              if
                !pending && Capability.tag moved
                && not (Capability.equal cap moved)
              then begin
                pending := false;
                Page.store_cap dst ~off cap
              end));
    }

(* Carry one parent capability across the next fork in an OCaml-heap
   cell — the shadow copy the tag scan can never see — and raw-store it
   into the child's meta page once the fork window closes, bypassing
   the MMU publication path. The stash is exactly the D13 escape
   pattern, discharged because being invisible to the static side is
   the point: only the runtime R4 fork scan can catch it. *)
let heap_smuggle k =
  let armed = ref true and stash = ref None in
  Kernel.watch_forks k
    {
      Kernel.no_fork_watch with
      fork_begin =
        (fun ~parent ->
          if !armed then
            stash :=
              Some
                (Capability.with_cursor (Kernel.area_cap k parent)
                   parent.Uproc.area_base));
      fork_end =
        (fun ~child ->
          match !stash with
          | None -> ()
          | Some cap -> (
              armed := false;
              stash := None;
              let addr = Kernel.meta_addr child 0 in
              match
                Page_table.lookup child.Uproc.pt ~vpn:(Addr.vpn_of_addr addr)
              with
              | Some pte ->
                  Page.store_cap (Phys.page pte.Pte.frame)
                    ~off:(Addr.page_offset addr) cap
              | None -> ()));
    }
[@@ufork.cap_escape_ok]

let chaos_table =
  let row ?subject name expect control doc arm =
    { name; expect; subject; doc; control; arm }
  in
  let copa = Ufork Strategy.Copa in
  [
    row "no-bkl" Invariant.Data_race (copa, Hello, 4)
      "drop every kernel lock and seed one unlocked write to the \
       fork-latency gauge" (fun k ->
        Kernel.chaos_disable_biglock k;
        spawn_rogue k "chaos-unlocked" (fun () ->
            Engine.sleep 1_000L;
            Trace.gauge (Kernel.trace k) Trace.last_fork_latency_key 0));
    row "unshard" Invariant.Data_race (copa, Storm, 64)
      "disable only the stats shard; the storm's own fork-latency gauge \
       writes must race"
      Kernel.chaos_unshard_stats;
    row "invert-shard-order" Invariant.Lock_order (copa, Storm, 64)
      "a rogue thread takes a pt-shard pair in descending index order"
      (fun k ->
        spawn_rogue k "chaos-shard-invert" (fun () ->
            Kernel.chaos_acquire_shards_descending k));
    row "stall-shard" Invariant.Lock_stall (copa, Hello, 4)
      ~subject:"lock.pt_shard.00"
      "a rogue thread holds pt-shard 0 across a long sleep" (fun k ->
        spawn_rogue k "chaos-stall-shard" (fun () ->
            Kernel.chaos_stall_shard k));
    row "skip-rebase" Invariant.Cap_provenance (copa, Storm, 4)
      "the first fork leaves one capability un-rebased in the child"
      skip_rebase;
    row "heap-smuggle" Invariant.Cap_provenance (copa, Storm, 4)
      "the first fork carries a parent capability across in an OCaml-heap \
       cell and plants it in the child"
      heap_smuggle;
    row "leak-root" Invariant.Cap_provenance (Cheribsd, Storm, 4)
      "a rogue thread stores the kernel root into a process's GOT"
      leak_root;
  ]

let find_chaos name = List.find_opt (fun c -> c.name = name) chaos_table

(* {2 Domain-parallel sweeps}

   [parmap] fans one experiment per sweep point out over OCaml domains.
   Every machine is self-contained (engine, kernel, trace, meter), so
   points never exchange simulated state and each point's result is the
   same bit pattern the serial order produces. A run that records,
   samples, arms a detector or injects chaos funnels per-machine state
   through the collection above, so it runs serially — those paths want
   one machine at a time, and their cost dwarfs any sweep parallelism. *)

let parallel_unsafe () = { (current_run ()) with cores = None } <> empty_run

let parmap ~jobs f items =
  let jobs = if parallel_unsafe () then 1 else max 1 jobs in
  let n = List.length items in
  if jobs <= 1 || n <= 1 then List.map f items
  else begin
    let arr = Array.of_list items in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    (* Workers never raise: each point's outcome is captured by index, so
       results (and the first failure, re-raised in item order) are
       independent of domain scheduling. *)
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (out.(i) <- Some (try Ok (f arr.(i)) with e -> Error e));
          loop ()
        end
      in
      loop ()
    in
    let helpers = List.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join helpers;
    Array.to_list arr |> List.mapi (fun i _ ->
        match out.(i) with
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false (* every index below [n] was claimed *))
  end

(* Cross-run event count for perfbench's experiment rows: every
   [finish_run] adds its machine's lifetime {!Trace.emits} here, so a
   row can report the events its experiment emitted without threading
   counts through each experiment's row type. Atomic, not mutexed: a
   sum is order-independent. *)
let emits_acc = Atomic.make 0
[@@ufork.global_ok "an order-independent sum across every machine run"]
let reset_emits () = Atomic.set emits_acc 0
let emits_total () = Atomic.get emits_acc

let register_trace r c tr =
  if r.record || Option.is_some r.trace_out then Trace.set_recording tr true;
  if Option.is_some r.trace_out then c.traced <- c.traced @ [ tr ];
  if r.profiles || Option.is_some r.profile_out then
    c.profiled <- c.profiled @ [ tr ]

(* Artifact writes create missing parents and turn filesystem failures
   into a clean one-line error — the harness front ends (CLI, bench)
   must never surface a Sys_error backtrace for a bad out-path. *)
let write_artifact path f =
  match Ufork_util.Fsout.with_out path f with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "error: %s\n%!" msg;
      exit 1

(* Rewrite the sinks from all traces so far; called after every run so
   the files are complete whenever the harness stops. *)
let flush_sinks r c =
  (match r.trace_out with
  | None -> ()
  | Some (path, format) ->
      write_artifact path (fun oc ->
          match format with
          | Jsonl ->
              List.iter
                (fun tr -> output_string oc (Trace.to_jsonl_string tr))
                c.traced
          | Chrome ->
              output_string oc
                (Trace.chrome_of_records
                   (List.concat_map Trace.records c.traced)));
      (* The ring drops oldest-first on overflow; a truncated artifact
         must say so rather than pass for a complete recording. *)
      let dropped =
        List.fold_left (fun acc tr -> acc + Trace.dropped tr) 0 c.traced
      in
      if dropped > c.warned_dropped then begin
        c.warned_dropped <- dropped;
        Printf.eprintf
          "warning: trace ring overflowed; %d oldest record%s dropped from %s\n\
           %!"
          dropped
          (if dropped = 1 then "" else "s")
          path
      end);
  match r.profile_out with
  | None -> ()
  | Some path ->
      write_artifact path (fun oc ->
          List.iter
            (fun tr -> output_string oc (Trace.folded_stacks tr))
            c.profiled)

(* The accounting invariant, checked after every experiment run: the
   engine's lifetime busy cycles must equal the cycles charged through the
   machine's event bus — no hidden constants (ISSUE: fig8/fig9 audits). *)
let audit_booted b =
  Trace.audit (Kernel.trace b.kernel) ~costs:(Kernel.costs b.kernel)
    ~elapsed:(Engine.advanced b.engine)

let flush_installed () =
  match !installed with Some (r, c) -> flush_sinks r c | None -> ()

(* The sinks are flushed whatever the verdict: a run that fails its
   audit is the one whose trace someone needs. *)
let finish_run b =
  ignore (Atomic.fetch_and_add emits_acc (Trace.emits (Kernel.trace b.kernel)));
  Fun.protect ~finally:flush_installed (fun () ->
      audit_booted b;
      (* The state sanitizer next to the accounting audit: a run that
         corrupted machine state must not report numbers. The lint half
         sees the recorded stream, so it is active whenever recording
         is. *)
      Checker.assert_safe ~provenance:b.provenance b.kernel;
      match b.violations () with
      | [] -> ()
      | vs -> raise (Checker.Unsafe (Invariant.report vs)))

(* Every flavour boots down to the same {!Ufork_core.System.t}; the
   uniform interface is one projection, not five hand-rolled records. *)
let of_system sys =
  {
    kernel = System.kernel sys;
    engine = System.engine sys;
    start = (fun ?affinity ~image main -> System.start sys ?affinity ~image main);
    run = (fun ?until () -> System.run ?until sys);
    provenance = false;
    violations = (fun () -> []);
  }

let boot_raw ~cores ?config system =
  of_system
    (match system with
    | Ufork strategy ->
        Os.system
          (Os.boot ~cores
             ~config:(Option.value config ~default:Config.ufork_fast)
             ~strategy ())
    | Ufork_toctou strategy ->
        Os.system
          (Os.boot ~cores
             ~config:(Option.value config ~default:Config.ufork_default)
             ~strategy ())
    | Cheribsd -> Monolithic.system (Monolithic.boot ~cores ?config ())
    | Linux_ref ->
        Monolithic.system
          (Monolithic.boot ~cores
             ~config:(Option.value config ~default:Config.linux_default)
             ~costs:Costs.linux_ref ())
    | Nephele -> Vmclone.system (Vmclone.boot ~cores ?config ()))

(* Arm the installed run on a machine booted under it. Each detector
   subscribes to the booted machine's own bus, so it sees that machine's
   events and no other's. Boot only builds empty structures and
   publishes nothing; the first events come from starting a process, so
   attaching right after boot loses no history. *)
let armed_boot r c make =
  let chaos =
    Option.map
      (fun name ->
        match find_chaos name with
        | Some row -> row
        | None -> invalid_arg ("unknown chaos injection " ^ name))
      r.chaos
  in
  let armed inv =
    List.mem inv r.detect
    || match chaos with Some row -> row.expect = inv | None -> false
  in
  let b = make () in
  let bus = Engine.bus b.engine in
  let detector on create x = if on then Some (create x) else None in
  let race = detector (armed Invariant.Data_race) Race.create bus in
  let lockdep = detector (armed Invariant.Lock_order) Lockdep.create bus in
  let causal =
    detector (r.causal || armed Invariant.Lock_stall) Causal.create bus
  in
  c.graph <- causal;
  let capflow =
    detector (armed Invariant.Cap_provenance) Capflow.create b.kernel
  in
  register_trace r c (Kernel.trace b.kernel);
  Option.iter
    (fun interval -> Kernel.enable_stat_sampling b.kernel ~interval)
    r.sample_interval;
  (* The injection goes in before the capflow probe: a heap-smuggled
     capability is planted at the fork's end, and the probe must see it. *)
  Option.iter (fun row -> row.arm b.kernel) chaos;
  if Option.is_some capflow then
    (* Fail at the fork that leaked, not at the next sweep: the probe
       raises from inside the fork window's closing edge. *)
    Kernel.watch_forks b.kernel
      {
        Kernel.no_fork_watch with
        fork_end =
          (fun ~child ->
            match Capflow.scan_fork b.kernel ~child with
            | [] -> ()
            | vs -> raise (Checker.Unsafe (Invariant.report vs)));
      };
  let found f = Option.fold ~none:[] ~some:f in
  {
    b with
    provenance = Option.is_some capflow;
    violations =
      (fun () ->
        found Race.violations race
        @ found Lockdep.violations lockdep
        @ found Capflow.violations capflow
        @ if armed Invariant.Lock_stall then found Causal.lock_stall causal
          else []);
  }

(* [make] boots the bare machine; the installed run picks its cores. *)
let boot_with ~cores make =
  match !installed with
  | None -> make ~cores
  | Some (r, c) ->
      armed_boot r c (fun () -> make ~cores:(Option.value r.cores ~default:cores))

let boot ?(cores = 4) ?config system =
  boot_with ~cores (fun ~cores -> boot_raw ~cores ?config system)

let run_on ?affinity b ~image main =
  let result = ref None in
  ignore (b.start ?affinity ~image (fun api -> result := Some (main api)));
  b.run ();
  finish_run b;
  match !result with
  | Some r -> (r, b)
  | None -> failwith "run_main: main never completed"

let run_main ?cores ?config ?affinity system ~image main =
  run_on ?affinity (boot ?cores ?config system) ~image main

let child_private_mb b pid =
  match Kernel.find_uproc b.kernel pid with
  | Some u -> Units.mb_of_bytes u.Uproc.private_bytes
  | None -> nan

(* {1 Redis} *)

type redis_row = {
  system : system;
  db_label : string;
  db_bytes : int;
  entries : int;
  save_ms : float;
  fork_us : float;
  child_mb : float;
  dump_ok : bool;
}

let value_seed = 0x5eedL

(* The paper's prototype gives each μprocess a build-time-sized static
   heap; with a 100 MB database the heap reservation is 136.7 MB (§5.2).
   We scale the build the same way: reservation = 1.37 x database size. *)
let redis_image ~db_bytes =
  let heap_bytes = max (4 * 1024 * 1024) (db_bytes * 137 / 100) in
  Image.redis ~heap_bytes

let redis_run system ~entries ~value_len ~db_label =
  let db_bytes = entries * value_len in
  let r, b =
    run_main system ~image:(redis_image ~db_bytes) (fun api ->
        let store = Kvstore.create api ~buckets:1024 () in
        Keyspace.populate store ~entries ~value_len ~seed:value_seed;
        Rdb.bgsave api store ~path:"/dump.rdb")
  in
  let dump_ok =
    match Vfs.contents (Kernel.vfs b.kernel) "/dump.rdb" with
    | exception Not_found -> false
    | contents ->
        Keyspace.dump_matches ~entries ~value_len ~seed:value_seed contents
  in
  {
    system;
    db_label;
    db_bytes;
    entries;
    save_ms = Units.ms_of_cycles r.Rdb.total_cycles;
    fork_us = Units.us_of_cycles r.Rdb.fork_latency_cycles;
    child_mb = child_private_mb b r.Rdb.child_pid;
    dump_ok;
  }

let redis_sweep ~systems ?(sizes = Keyspace.db_sizes_of_paper) ?(jobs = 1) ()
    =
  (* Flatten first so [parmap] sees every (system, size) point; the
     concat order is exactly the serial nesting, so results — each
     point its own machine — are bit-identical to the sequential map. *)
  let points =
    List.concat_map
      (fun system -> List.map (fun size -> (system, size)) sizes)
      systems
  in
  parmap ~jobs
    (fun (system, (db_label, entries, value_len)) ->
      redis_run system ~entries ~value_len ~db_label)
    points

(* {1 FaaS} *)

type faas_row = {
  system : system;
  worker_cores : int;
  throughput_per_s : float;
  completed : int;
}

(* FunctionBench float_operation sized to ~0.6 ms of interpreter work. *)
let faas_program = Mpy.float_operation ~n:3650

let faas_run system ~worker_cores ?(window_s = 1.0) ?(program = faas_program)
    ?locals () =
  if worker_cores <= 0 then invalid_arg "faas_run";
  let window_cycles = Units.cycles_of_s window_s in
  let r, _ =
    run_main ~cores:(worker_cores + 1) ~affinity:0 system
      ~image:Image.micropython (fun api ->
        Faas.coordinator ?locals api ~max_workers:worker_cores ~window_cycles
          ~program)
  in
  {
    system;
    worker_cores;
    throughput_per_s = r.Faas.throughput_per_s;
    completed = r.Faas.completed;
  }

(* {1 Nginx} *)

type nginx_row = {
  system : system;
  cores : int;
  workers : int;
  requests_per_s : float;
}

let nginx_run system ~cores ~workers ?(window_s = 1.0) ?(connections = 16) () =
  let b = boot ~cores system in
  Httpd.populate_docroot (Kernel.vfs b.kernel);
  let net = Httpd.Net.create () in
  let window_cycles = Units.cycles_of_s window_s in
  let u =
    b.start ~image:Image.nginx (fun api ->
        Httpd.master api ~net ~listen_rfd:3 ~listen_wfd:4 ~workers
          ~window_cycles)
  in
  (* Hand the master its pre-opened listen socket (fds 3 and 4), like a
     socket-activated service. *)
  let p = Httpd.Net.listen_pipe net in
  let rfd = Fdesc.Fdtable.alloc u.Uproc.fds (Fdesc.Pipe_read p) in
  let wfd = Fdesc.Fdtable.alloc u.Uproc.fds (Fdesc.Pipe_write p) in
  assert (rfd = 3 && wfd = 4);
  Httpd.Net.spawn_clients b.engine net ~connections ~window_cycles;
  b.run ();
  finish_run b;
  let stats = Httpd.Net.stats net in
  {
    system;
    cores;
    workers;
    requests_per_s = float_of_int stats.Httpd.Net.completed /. window_s;
  }

(* {1 hello world (Fig. 8)} *)

type hello_row = {
  system : system;
  fork_latency_us : float;
  child_memory_mb : float;
}

let hello_run system =
  let s, b =
    run_main system ~image:Image.hello (fun api ->
        let s = Hello.fork_once api in
        Hello.reap api;
        s)
  in
  {
    system;
    fork_latency_us = Units.us_of_cycles s.Hello.latency_cycles;
    child_memory_mb = child_private_mb b s.Hello.child_pid;
  }

let fig8 () = List.map hello_run [ Ufork Strategy.Copa; Cheribsd; Nephele ]

(* {1 Unixbench (Fig. 9)} *)

type unixbench_row = {
  system : system;
  spawn_ms : float;
  context1_ms : float;
}

let unixbench_run system ~spawn_iters ~context1_iters =
  let spawn_cycles, _ =
    run_main system ~image:Image.hello (fun api ->
        Unixbench.spawn api ~iterations:spawn_iters)
  in
  let ctx, _ =
    run_main system ~image:Image.hello (fun api ->
        Unixbench.context1 api ~iterations:context1_iters)
  in
  {
    system;
    spawn_ms = Units.ms_of_cycles spawn_cycles;
    context1_ms = Units.ms_of_cycles ctx.Unixbench.total_cycles;
  }

let fig9 ?(spawn_iters = 1000) ?(context1_iters = 100_000) () =
  List.map
    (fun s -> unixbench_run s ~spawn_iters ~context1_iters)
    [ Ufork Strategy.Copa; Cheribsd ]

(* {1 SMP fork scaling (BENCH_smp.json)} *)

type smp_row = {
  system : system;
  cores : int;
  locks : string;
  forks : int;
  forks_per_s : float;
  fault_p50_us : float;
  fault_p99_us : float;
  steals : int;
}

(* One forking μprocess per core, each forking and reaping [iters]
   children that dirty a two-page working set (a CoW resolution in the
   child, another back in the parent). The forkers run concurrently, so
   the uproc table, fd tables, page-table shards, frame pool and the
   stats gauge all see real cross-core contention: this is the workload
   the scaling bench sweeps and the CI race job replays under the
   happens-before detector. *)
let fork_storm_run ?config system ~cores ~iters () =
  let b = boot ~cores ?config system in
  let page = 4096 in
  let forks = ref 0 in
  for _ = 1 to cores do
    ignore
      (b.start ~image:Image.hello (fun api ->
           let cell = api.Api.malloc (2 * page) in
           api.Api.write_u64 cell ~off:0 0L;
           api.Api.got_set 0 cell;
           for _ = 1 to iters do
             ignore
               (api.Api.fork (fun capi ->
                    (* The GOT slot, not the parent's capability: CoPA
                       relocates the child's copy into its own area. *)
                    let c = capi.Api.got_get 0 in
                    capi.Api.write_u64 c ~off:0 1L;
                    capi.Api.write_u64 c ~off:page 2L;
                    capi.Api.exit 0));
             ignore (api.Api.wait ());
             (* Take the CoW write fault back on the parent side. *)
             api.Api.write_u64 cell ~off:0 3L;
             incr forks
           done))
  done;
  b.run ();
  finish_run b;
  let elapsed_s = Units.s_of_cycles (Engine.now b.engine) in
  let quant p =
    match Trace.span_histogram (Kernel.trace b.kernel) "fault.service" with
    | Some h -> Units.us_of_cycles (Ufork_sim.Histogram.quantile h p)
    | None -> 0.
  in
  {
    system;
    cores;
    locks =
      (match (Kernel.config b.kernel).Config.lock_mode with
      | Config.Big_kernel_lock -> "bkl"
      | Config.Sharded_locks -> "sharded");
    forks = !forks;
    forks_per_s =
      (if elapsed_s > 0. then float_of_int !forks /. elapsed_s else 0.);
    fault_p50_us = quant 0.5;
    fault_p99_us = quant 0.99;
    steals = Engine.steals b.engine;
  }

(* {1 The shared observer workloads} *)

let run_workload system = function
  | Hello ->
      let r = hello_run system in
      Printf.sprintf "%s: fork %.1f us, child memory %.2f MB"
        (system_label system) r.fork_latency_us r.child_memory_mb
  | Redis ->
      let r =
        redis_run system ~entries:50 ~value_len:(100 * 1024) ~db_label:"5 MB"
      in
      Printf.sprintf "%s: save %.2f ms, fork %.1f us" (system_label system)
        r.save_ms r.fork_us
  | Unixbench ->
      let r = unixbench_run system ~spawn_iters:50 ~context1_iters:500 in
      Printf.sprintf "%s: Spawn(50) %.2f ms, Context1(500) %.2f ms"
        (system_label system) r.spawn_ms r.context1_ms
  | Storm ->
      let cores = Option.value (current_run ()).cores ~default:4 in
      let r = fork_storm_run system ~cores ~iters:4 () in
      Printf.sprintf "%s: %d forks on %d cores, %.0f forks/s"
        (system_label system) r.forks r.cores r.forks_per_s
  | Faas ->
      let r = faas_run system ~worker_cores:1 ~window_s:0.05 () in
      Printf.sprintf "%s: float_operation, %d completed, %.0f functions/s"
        (system_label system) r.completed r.throughput_per_s
  | Nginx ->
      let r = nginx_run system ~cores:1 ~workers:1 ~window_s:0.05 () in
      Printf.sprintf "%s: 1 worker, %.0f req/s" (system_label system)
        r.requests_per_s

(* A failure raised mid-run (the capflow fork probe, a capability
   fault) skips [finish_run], so the sinks are flushed here too. *)
let check system workload =
  let failed report =
    flush_installed ();
    Error report
  in
  match run_workload system workload with
  | summary -> Ok summary
  | exception Checker.Unsafe report -> failed report
  | exception Trace.Audit_failure msg -> failed ("accounting audit: " ^ msg)
  | exception Causal.Audit_failure msg ->
      failed ("critical-path audit: " ^ msg)
  | exception Capability.Violation msg ->
      failed ("architectural capability violation: " ^ msg)

(* {1 Ablations} *)

type ablation_row = { label : string; value : float; unit_ : string }

(* [proactive] is a boot option of {!Os}, not a {!Config} field, so this
   is the one machine booted outside [boot_raw]'s table. *)
let zygote_fork_faults ~proactive =
  let b =
    boot_with ~cores:2 (fun ~cores ->
        of_system
          (Os.system
             (Os.boot ~cores ~config:Config.ufork_fast ~strategy:Strategy.Copa
                ~proactive ())))
  in
  let latency, _ =
    run_on b ~image:Image.micropython (fun api ->
        Mpy.zygote_init api ~modules:24;
        let t0 = api.Api.now () in
        ignore
          (api.Api.fork (fun capi ->
               ignore (Mpy.zygote_check capi);
               capi.Api.exit 0));
        let latency = Int64.sub (api.Api.now ()) t0 in
        ignore (api.Api.wait ());
        latency)
  in
  let faults =
    Ufork_sim.Meter.get (Kernel.meter b.kernel) Ufork_sim.Event.fault_key
  in
  (Units.us_of_cycles latency, float_of_int faults)

let ablate_proactive () =
  let lat_on, faults_on = zygote_fork_faults ~proactive:true in
  let lat_off, faults_off = zygote_fork_faults ~proactive:false in
  [
    { label = "fork latency, proactive GOT/meta copy"; value = lat_on; unit_ = "us" };
    { label = "fork latency, lazy GOT/meta"; value = lat_off; unit_ = "us" };
    { label = "post-fork faults, proactive"; value = faults_on; unit_ = "faults" };
    { label = "post-fork faults, lazy"; value = faults_off; unit_ = "faults" };
  ]

let context1_with_config config =
  let r, _ =
    run_main ~config (Ufork Strategy.Copa) ~image:Image.hello (fun api ->
        Unixbench.context1 api ~iterations:10_000)
  in
  r.Unixbench.per_switch_cycles /. Units.clock_hz *. 1e6

let ablate_syscall_entry () =
  let sealed = context1_with_config Config.ufork_fast in
  let trap =
    context1_with_config
      { Config.ufork_fast with Config.syscall_mode = Config.Trap }
  in
  [
    { label = "Context1 round trip, sealed entry"; value = sealed; unit_ = "us" };
    { label = "Context1 round trip, trap entry"; value = trap; unit_ = "us" };
  ]

let ablate_isolation () =
  let run config label =
    let entries = 100 and value_len = 100 * 1024 in
    let r, _ =
      run_main ~config (Ufork Strategy.Copa)
        ~image:(redis_image ~db_bytes:(entries * value_len)) (fun api ->
          let store = Kvstore.create api ~buckets:1024 () in
          Keyspace.populate store ~entries ~value_len ~seed:value_seed;
          Rdb.bgsave api store ~path:"/dump.rdb")
    in
    {
      label = "Redis 10MB save, " ^ label;
      value = Units.ms_of_cycles r.Rdb.total_cycles;
      unit_ = "ms";
    }
  in
  [
    run { Config.ufork_fast with Config.isolation = Config.No_isolation } "no isolation";
    run Config.ufork_fast "fault isolation";
    run { Config.ufork_fast with Config.isolation = Config.Full_isolation } "full isolation";
    run Config.ufork_default "full isolation + TOCTTOU";
  ]

(* {1 Fragmentation study (§6)}

   The paper notes μprocess areas are large and contiguous, raising
   fragmentation concerns for long-running fork-heavy deployments, and
   proposes compaction or size classes as future work. Quantify the
   problem: uniform fork/exit churn recycles areas perfectly, while
   processes of interleaved different sizes leave holes that first-fit
   cannot always fill. *)

type fragmentation_row = {
  scenario : string;
  churn : int;  (** fork/exit rounds performed *)
  arena_mb : float;  (** virtual-arena high-water mark *)
  live_mb : float;  (** area bytes still owned by live processes *)
}

let fragmentation_run ?(fit = Config.First_fit) ~mixed ~churn () =
  let b =
    boot ~cores:2
      ~config:(Config.with_area_fit fit Config.ufork_fast)
      (Ufork Strategy.Copa)
  in
  let images =
    if mixed then
      [
        Image.make ~heap_bytes:(256 * 1024) "small";
        Image.make ~heap_bytes:(4 * 1024 * 1024) "large";
        Image.make ~heap_bytes:(1024 * 1024) "medium";
      ]
    else [ Image.make ~heap_bytes:(1024 * 1024) "uniform" ]
  in
  (* Each driver process churns children of its own size; drivers of
     different sizes interleave their reaps, shredding the free list. *)
  List.iter
    (fun image ->
      ignore
        (b.start ~image (fun api ->
             for _ = 1 to churn do
               ignore (api.Api.fork (fun capi -> capi.Api.exit 0));
               ignore (api.Api.wait ())
             done)))
    images;
  b.run ();
  finish_run b;
  {
    scenario =
      Printf.sprintf "%s, %s"
        (if mixed then "mixed sizes" else "uniform size")
        (match fit with
        | Config.First_fit -> "first fit"
        | Config.Best_fit -> "best fit");
    churn = churn * List.length images;
    arena_mb = Units.mb_of_bytes (Kernel.arena_span b.kernel);
    live_mb = Units.mb_of_bytes (Kernel.live_area_bytes b.kernel);
  }

let ablate_fragmentation ?(churn = 50) () =
  [
    fragmentation_run ~mixed:false ~churn ();
    fragmentation_run ~mixed:true ~churn ();
    fragmentation_run ~fit:Config.Best_fit ~mixed:true ~churn ();
  ]
