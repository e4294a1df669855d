module E = Ufork_workload.Experiments
module Keyspace = Ufork_workload.Keyspace
module Api = Ufork_sas.Api
module Image = Ufork_sas.Image
module Kernel = Ufork_sas.Kernel
module Config = Ufork_sas.Config
module Uproc = Ufork_sas.Uproc
module Vfs = Ufork_sas.Vfs
module System = Ufork_core.System
module Strategy = Ufork_core.Strategy
module Units = Ufork_util.Units
module Kvstore = Ufork_apps.Kvstore
module Rdb = Ufork_apps.Rdb
module Mpy = Ufork_apps.Mpy
module Faas = Ufork_apps.Faas

type workload = Redis_bgsave | Fork_storm_512 | Faas_zygote

let all = [ Redis_bgsave; Fork_storm_512; Faas_zygote ]

let name = function
  | Redis_bgsave -> "redis-bgsave"
  | Fork_storm_512 -> "fork-storm-512"
  | Faas_zygote -> "faas-zygote"

let of_name s = List.find_opt (fun w -> name w = s) all
let default_seed = 0x5eed
let seed_used w = w = Redis_bgsave
let copa = E.Ufork Strategy.Copa

let systems = function
  | Redis_bgsave -> [ copa; E.Ufork Strategy.Full_copy; E.Cheribsd ]
  | Fork_storm_512 -> [ copa ]
  | Faas_zygote -> [ copa; E.Cheribsd ]

type result = {
  workload : workload;
  seed : int;
  rows : Json.t list;
  fork_cycles : int64 list;
  sim_ops_per_s : float;
  paper_err_pct : float option;
  attempted : int;
  failed : int;
  checks : Machine.check list;
  stats : Machine.stats list;
  run_ns : int;
  functions_completed : int;
  dump_bytes : int;
  kv_sets : int;
  mpy_instructions : int;
}

(* {1 Workload sizes} *)

let redis_entries ~scale = 1000 / scale
let redis_value_len = 100 * 1024
let storm_cores ~scale = 512 / scale
let storm_iters = 12
let faas_workers = 3
let faas_window_s ~scale = 0.25 /. float_of_int scale
let faas_program = Mpy.float_operation ~n:3650
let db_label = "100 MB"

(* Experiments' heap sizing: reservation = 1.37 x database (§5.2). *)
let redis_image ~db_bytes =
  Image.redis ~heap_bytes:(max (4 * 1024 * 1024) (db_bytes * 137 / 100))

let row system fields =
  Json.Obj (("system", Json.Str (E.system_label system)) :: fields)

(* {1 redis-bgsave} *)

type redis_one = {
  r_row : Json.t;
  r_stats : Machine.stats;
  r_forks : int64 list;
  r_checks : Machine.check list;
  r_save_ms : float;
  r_fork_us : float;
  r_child_mb : float;
  r_dump_ok : bool;
  r_bytes : int;
  r_run_ns : int;
}

let redis_one tracer ~scale ~seed ~at_run system =
  let entries = redis_entries ~scale in
  let value_len = redis_value_len in
  let seed = Int64.of_int seed in
  let m = Machine.boot tracer system ~cores:4 in
  let result = ref None in
  let _u =
    Machine.start tracer m
      ~image:(redis_image ~db_bytes:(entries * value_len))
      (fun api ->
        let store =
          Tracer.span tracer Layer.Apps "kvstore.create" (fun () ->
              Kvstore.create api ~buckets:1024 ())
        in
        (* Keyspace.populate, one span per layer call. *)
        for i = 0 to entries - 1 do
          let value =
            Tracer.span tracer Layer.Workload "keyspace.value" (fun () ->
                Keyspace.value ~seed ~index:i ~len:value_len)
          in
          Tracer.span tracer Layer.Apps "kvstore.set" (fun () ->
              Kvstore.set store ~key:(Keyspace.key i) ~value)
        done;
        result :=
          Some
            (Tracer.span tracer Layer.Apps "rdb.bgsave" (fun () ->
                 Rdb.bgsave api store ~path:"/dump.rdb")))
  in
  Machine.run tracer m ~at_run;
  let checks = Machine.finish tracer m in
  let kernel = System.kernel (Machine.system m) in
  let r =
    match !result with
    | Some r -> r
    | None -> failwith "redis-bgsave: the benchmark process never completed"
  in
  let dump =
    match Vfs.contents (Kernel.vfs kernel) "/dump.rdb" with
    | exception Not_found -> None
    | contents -> Some contents
  in
  let dump_bytes = Option.fold ~none:0 ~some:String.length dump in
  let dump_ok =
    Tracer.span tracer Layer.Workload "verify" (fun () ->
        match dump with
        | None -> false
        | Some contents -> (
            match
              Tracer.span tracer Layer.Apps "rdb.verify" (fun () ->
                  Rdb.verify contents)
            with
            | exception Failure _ -> false
            | got ->
                let got = List.sort compare got in
                got
                = Tracer.span tracer Layer.Workload "keyspace.expected"
                    (fun () ->
                      Keyspace.expected_entries ~entries ~value_len ~seed)))
  in
  let child_mb =
    match Kernel.find_uproc kernel r.Rdb.child_pid with
    | Some u -> Units.mb_of_bytes u.Uproc.private_bytes
    | None -> nan
  in
  let save_ms = Units.ms_of_cycles r.Rdb.total_cycles in
  let fork_us = Units.us_of_cycles r.Rdb.fork_latency_cycles in
  let stats = Machine.stats m in
  {
    r_row =
      row system
        [
          ("db_label", Json.Str db_label);
          ("entries", Json.Int entries);
          ("save_ms", Json.Float save_ms);
          ("fork_us", Json.Float fork_us);
          ("child_mb", Json.Float child_mb);
          ("dump_ok", Json.Bool dump_ok);
          ("events", Json.Int stats.Machine.emits);
        ];
    r_stats = stats;
    r_forks = Machine.fork_cycles m;
    r_checks =
      checks
      @ [
          {
            Machine.name = "fork latency " ^ E.system_label system;
            ok = Machine.fork_cycles m = [ r.Rdb.fork_latency_cycles ];
            detail = "api.now around the fork must equal Rdb's own reading";
          };
        ];
    r_save_ms = save_ms;
    r_fork_us = fork_us;
    r_child_mb = child_mb;
    r_dump_ok = dump_ok;
    r_bytes = dump_bytes;
    r_run_ns = Machine.run_ns m;
  }

let redis tracer ~scale ~seed ~at_run =
  let ones =
    List.map
      (fun s -> redis_one tracer ~scale ~seed ~at_run s)
      (systems Redis_bgsave)
  in
  let c, f, b =
    match ones with [ c; f; b ] -> (c, f, b) | _ -> assert false
  in
  let failed = List.length (List.filter (fun o -> not o.r_dump_ok) ones) in
  {
    workload = Redis_bgsave;
    seed;
    rows = List.map (fun o -> o.r_row) ones;
    fork_cycles = c.r_forks;
    sim_ops_per_s = 1000. /. c.r_save_ms;
    paper_err_pct =
      (let measured =
         [ c.r_fork_us; f.r_fork_us; c.r_save_ms; b.r_save_ms; c.r_child_mb;
           f.r_child_mb; b.r_child_mb ]
       in
       Some
         (Paper.err_pct
            (List.combine measured
               (List.map (fun p -> p.Paper.value) Paper.redis))));
    attempted = List.length ones;
    failed;
    checks =
      List.concat_map (fun o -> o.r_checks) ones
      @ List.map
          (fun o ->
            {
              Machine.name = "dump " ^ o.r_stats.Machine.label;
              ok = o.r_dump_ok;
              detail = "the dump parses back to the seed's keyspace";
            })
          ones;
    stats = List.map (fun o -> o.r_stats) ones;
    run_ns = List.fold_left (fun acc o -> acc + o.r_run_ns) 0 ones;
    functions_completed = 0;
    dump_bytes = c.r_bytes;
    kv_sets = redis_entries ~scale * List.length ones;
    mpy_instructions = 0;
  }

(* {1 fork-storm-512} *)

let storm tracer ~scale ~seed ~at_run =
  let cores = storm_cores ~scale in
  let m = Machine.boot tracer copa ~cores in
  let page = 4096 in
  let forks = ref 0 and failed = ref 0 in
  for _ = 1 to cores do
    ignore
      (Machine.start tracer m ~image:Image.hello (fun api ->
           let cell = api.Api.malloc (2 * page) in
           api.Api.write_u64 cell ~off:0 0L;
           api.Api.got_set 0 cell;
           for _ = 1 to storm_iters do
             match
               api.Api.fork (fun capi ->
                   let c = capi.Api.got_get 0 in
                   capi.Api.write_u64 c ~off:0 1L;
                   capi.Api.write_u64 c ~off:page 2L;
                   capi.Api.exit 0)
             with
             | exception Api.Sys_error _ -> incr failed
             | _pid ->
                 ignore (api.Api.wait ());
                 api.Api.write_u64 cell ~off:0 3L;
                 incr forks
           done))
  done;
  Machine.run tracer m ~at_run;
  let checks = Machine.finish tracer m in
  let s = Machine.stats m in
  let elapsed_s = Units.s_of_cycles s.Machine.now in
  let forks_per_s =
    if elapsed_s > 0. then float_of_int !forks /. elapsed_s else 0.
  in
  let locks =
    match (Kernel.config (System.kernel (Machine.system m))).Config.lock_mode with
    | Config.Big_kernel_lock -> "bkl"
    | Config.Sharded_locks -> "sharded"
  in
  {
    workload = Fork_storm_512;
    seed;
    rows =
      [
        row copa
          [
            ("cores", Json.Int cores);
            ("locks", Json.Str locks);
            ("forks", Json.Int !forks);
            ("forks_per_s", Json.Float forks_per_s);
            ("fault_p50_us", Json.Float (Units.us_of_cycles s.Machine.fault_p50));
            ("fault_p99_us", Json.Float (Units.us_of_cycles s.Machine.fault_p99));
            ("steals", Json.Int s.Machine.steals);
            ("events", Json.Int s.Machine.emits);
          ];
      ];
    fork_cycles = Machine.fork_cycles m;
    sim_ops_per_s = forks_per_s;
    paper_err_pct = None;
    attempted = cores * storm_iters;
    failed = !failed;
    checks;
    stats = [ s ];
    run_ns = Machine.run_ns m;
    functions_completed = 0;
    dump_bytes = 0;
    kv_sets = 0;
    mpy_instructions = 0;
  }

(* {1 faas-zygote} *)

type faas_one = {
  f_row : Json.t;
  f_stats : Machine.stats;
  f_forks : int64 list;
  f_checks : Machine.check list;
  f_throughput : float;
  f_completed : int;
  f_forked : int;
  f_failed : int;
  f_run_ns : int;
}

let faas_one tracer ~scale ~at_run system =
  let m = Machine.boot tracer system ~cores:(faas_workers + 1) in
  let window_cycles = Units.cycles_of_s (faas_window_s ~scale) in
  let completed = ref 0 and forked = ref 0 and failed = ref 0 in
  let throughput = ref nan in
  let _u =
    Machine.start tracer m ~affinity:0 ~image:Image.micropython (fun api ->
        (* Faas.coordinator's loop, with every exit status counted. *)
        Tracer.span tracer Layer.Apps "mpy.zygote_init" (fun () ->
            Mpy.zygote_init api ~modules:24);
        let t0 = api.Api.now () in
        let deadline = Int64.add t0 window_cycles in
        let outstanding = ref 0 in
        let reap () =
          let _pid, status = api.Api.wait () in
          decr outstanding;
          if status <> 0 then incr failed;
          status
        in
        while api.Api.now () < deadline do
          if !outstanding < faas_workers then begin
            incr forked;
            ignore
              (api.Api.fork (fun capi ->
                   Tracer.span tracer Layer.Apps "faas.run_function"
                     (fun () -> Faas.run_function capi faas_program)));
            incr outstanding
          end
          else if reap () = 0 && api.Api.now () <= deadline then
            incr completed
        done;
        while !outstanding > 0 do
          ignore (reap ())
        done;
        throughput :=
          float_of_int !completed
          /. Units.s_of_cycles (Int64.sub deadline t0))
  in
  Machine.run tracer m ~at_run;
  let checks = Machine.finish tracer m in
  let s = Machine.stats m in
  {
    f_row =
      row system
        [
          ("worker_cores", Json.Int faas_workers);
          ("throughput_per_s", Json.Float !throughput);
          ("completed", Json.Int !completed);
          ("events", Json.Int s.Machine.emits);
        ];
    f_stats = s;
    f_forks = Machine.fork_cycles m;
    f_checks = checks;
    f_throughput = !throughput;
    f_completed = !completed;
    f_forked = !forked;
    f_failed = !failed;
    f_run_ns = Machine.run_ns m;
  }

let instructions_per_function =
  Int64.to_int (Int64.div (Mpy.estimated_cycles faas_program) Mpy.cycles_per_instr)

let faas tracer ~scale ~seed ~at_run =
  let ones =
    List.map (fun s -> faas_one tracer ~scale ~at_run s) (systems Faas_zygote)
  in
  let c = List.nth ones 0 and b = List.nth ones 1 in
  let forked = List.fold_left (fun acc o -> acc + o.f_forked) 0 ones in
  {
    workload = Faas_zygote;
    seed;
    rows = List.map (fun o -> o.f_row) ones;
    fork_cycles = c.f_forks;
    sim_ops_per_s = c.f_throughput;
    paper_err_pct =
      Some
        (Paper.err_pct
           [ (c.f_throughput /. b.f_throughput, Paper.faas_ratio.Paper.value) ]);
    attempted = forked;
    failed = List.fold_left (fun acc o -> acc + o.f_failed) 0 ones;
    checks = List.concat_map (fun o -> o.f_checks) ones;
    stats = List.map (fun o -> o.f_stats) ones;
    run_ns = List.fold_left (fun acc o -> acc + o.f_run_ns) 0 ones;
    functions_completed = c.f_completed;
    dump_bytes = 0;
    kv_sets = 0;
    mpy_instructions = forked * instructions_per_function;
  }

let run ?(scale = 1) tracer w ~seed ~at_run =
  match w with
  | Redis_bgsave -> redis tracer ~scale ~seed ~at_run
  | Fork_storm_512 -> storm tracer ~scale ~seed ~at_run
  | Faas_zygote -> faas tracer ~scale ~seed ~at_run

(* {1 The Experiments rows} *)

let with_events f =
  E.reset_emits ();
  let r = f () in
  (r, E.emits_total ())

let experiment_rows ?(scale = 1) w =
  match w with
  | Redis_bgsave ->
      List.map
        (fun system ->
          let (r : E.redis_row), events =
            with_events (fun () ->
                E.redis_run system ~entries:(redis_entries ~scale)
                  ~value_len:redis_value_len ~db_label)
          in
          row system
            [
              ("db_label", Json.Str r.E.db_label);
              ("entries", Json.Int r.E.entries);
              ("save_ms", Json.Float r.E.save_ms);
              ("fork_us", Json.Float r.E.fork_us);
              ("child_mb", Json.Float r.E.child_mb);
              ("dump_ok", Json.Bool r.E.dump_ok);
              ("events", Json.Int events);
            ])
        (systems w)
  | Fork_storm_512 ->
      let (r : E.smp_row), events =
        with_events (fun () ->
            E.fork_storm_run copa ~cores:(storm_cores ~scale) ~iters:storm_iters ())
      in
      [
        row copa
          [
            ("cores", Json.Int r.E.cores);
            ("locks", Json.Str r.E.locks);
            ("forks", Json.Int r.E.forks);
            ("forks_per_s", Json.Float r.E.forks_per_s);
            ("fault_p50_us", Json.Float r.E.fault_p50_us);
            ("fault_p99_us", Json.Float r.E.fault_p99_us);
            ("steals", Json.Int r.E.steals);
            ("events", Json.Int events);
          ];
      ]
  | Faas_zygote ->
      List.map
        (fun system ->
          let (r : E.faas_row), events =
            with_events (fun () ->
                E.faas_run system ~worker_cores:faas_workers
                  ~window_s:(faas_window_s ~scale) ())
          in
          row system
            [
              ("worker_cores", Json.Int r.E.worker_cores);
              ("throughput_per_s", Json.Float r.E.throughput_per_s);
              ("completed", Json.Int r.E.completed);
              ("events", Json.Int events);
            ])
        (systems w)
