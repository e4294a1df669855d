(* The benchmark's measuring process. run.py starts one per iteration
   (so peak RSS and set-up time are per workload) and aggregates.

     main.exe iter --workload W --seed N [--traced] [--setup-only]
                   [--t0-ns T] [--spans-out FILE]
     main.exe experiments --workload W
     main.exe probe
     main.exe paper

   Each prints one JSON object on stdout. A traced iteration also runs
   the op-cost ladder and the host-speed probe, after the workload. *)

open Perfbench
module Units = Ufork_util.Units

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let print j =
  print_string (Json.to_string j);
  print_newline ()

let peak_rss_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> -1
  | s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> Option.value (int_of_string_opt kb) ~default:acc
              | [] -> acc)
          | _ -> acc)
        (-1) (String.split_on_char '\n' s)

let gc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let metrics_obj kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs)

(* {1 Commands} *)

let probe_json (p : Probe.t) =
  Json.Obj
    [
      ("noalloc_ms", Json.Float p.Probe.noalloc_ms);
      ("alloc_ms", Json.Float p.Probe.alloc_ms);
    ]

let iter ~workload ~seed ~traced ~setup_only ~t0_ns ~spans_out =
  let run_id =
    Printf.sprintf "%s-seed%d-%s" (Workloads.name workload) seed
      (if traced then "traced" else "untraced")
  in
  let setup_ns = ref (-1) in
  let at_run () =
    if !setup_ns < 0 then begin
      setup_ns := now_ns () - t0_ns;
      if setup_only then begin
        print (Json.Obj [ ("setup_ns", Json.Int !setup_ns) ]);
        exit 0
      end
    end
  in
  let gc0 = Gc.quick_stat () in
  let tracer = if traced then Tracer.create ~run_id () else Tracer.off in
  let start = now_ns () in
  let r = Workloads.run tracer workload ~seed ~at_run in
  let workload_ns = now_ns () - start in
  Tracer.finish tracer;
  (* Read before the ladder and the output are built. *)
  let alloc_words = gc_words () and peak_rss_kb = peak_rss_kb () in
  let gc = Gc.quick_stat () in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 r.Workloads.stats in
  let tiling_ok =
    List.fold_left (fun acc l -> acc + Tracer.self_ns tracer l) 0 Layer.all
    = Tracer.wall_ns tracer
  in
  (match spans_out with
  | Some path when traced ->
      Out_channel.with_open_text path (fun oc -> Tracer.to_jsonl tracer oc)
  | _ -> ());
  (* The ladder and the probe run after the traced window, on a heap
     compacted back to the live set. *)
  let ladder =
    if traced then begin
      Gc.compact ();
      Some (Ladder.measure (), Probe.measure ())
    end
    else None
  in
  let ladder_json =
    match ladder with
    | None -> Json.Null
    | Some (rows, probe) ->
        let predicted = Ladder.predict rows r in
        let predicted_s = List.fold_left (fun acc (_, v) -> acc +. v) 0. predicted in
        let measured_s = float_of_int (Tracer.wall_ns tracer) /. 1e9 in
        Json.Obj
          [
            ( "rungs",
              Json.List
                (List.map
                   (fun (r : Ladder.row) ->
                     Json.Obj
                       [
                         ("name", Json.Str r.Ladder.name);
                         ("layer", Json.Str (Layer.name r.Ladder.layer));
                         ("ns_per_op", Json.Float r.Ladder.ns_per_op);
                         ("words_per_op", Json.Float r.Ladder.words_per_op);
                       ])
                   rows) );
            ( "predicted_s",
              Json.Obj
                (List.map (fun (l, v) -> (Layer.name l, Json.Float v)) predicted) );
            ("predicted_total_s", Json.Float predicted_s);
            ( "residual_pct",
              Json.Float (Ladder.residual_pct ~predicted_s ~measured_s) );
            ("probe", probe_json probe);
          ]
  in
  let forks = r.Workloads.fork_cycles in
  let us q = Units.us_of_cycles (Int64.of_float (Metrics.quantile q forks)) in
  print
    (Json.Obj
       [
         ("run_id", Json.Str run_id);
         ("workload", Json.Str (Workloads.name workload));
         ("seed", Json.Int seed);
         ("seed_used", Json.Bool (Workloads.seed_used workload));
         ("traced", Json.Bool traced);
         ("setup_ns", Json.Int !setup_ns);
         ("workload_ns", Json.Int workload_ns);
         ("run_ns", Json.Int r.Workloads.run_ns);
         ("rows", Json.List r.Workloads.rows);
         ("emits", Json.Int (sum (fun s -> s.Machine.emits)));
         ( "charged",
           Json.Int (sum (fun s -> Int64.to_int s.Machine.charged)) );
         ( "sim",
           metrics_obj
             [
               ("sim_fork_us", us 50.);
               ("sim_fork_us_p99", us 99.);
               ("sim_ops_per_s", r.Workloads.sim_ops_per_s);
               ( "sim_mem_mb",
                 Units.mb_of_bytes
                   ((List.hd r.Workloads.stats).Machine.peak_frames * 4096) );
             ] );
         ("fork_samples", Json.Int (List.length forks));
         ( "paper_err_pct",
           match r.Workloads.paper_err_pct with
           | Some e -> Json.Float e
           | None -> Json.Null );
         ("attempted", Json.Int r.Workloads.attempted);
         ("failed", Json.Int r.Workloads.failed);
         ( "checks",
           Json.List
             (List.map
                (fun (c : Machine.check) ->
                  Json.Obj
                    [
                      ("name", Json.Str c.Machine.name);
                      ("ok", Json.Bool c.Machine.ok);
                      ("detail", Json.Str c.Machine.detail);
                    ])
                (r.Workloads.checks
                @
                if traced then
                  [
                    {
                      Machine.name = "tiling";
                      ok = tiling_ok;
                      detail = "layer self times sum to the traced wall";
                    };
                  ]
                else [])) );
         ("alloc_words", Json.Float alloc_words);
         ("peak_rss_kb", Json.Int peak_rss_kb);
         ( "gc_minor_collections",
           Json.Int (gc.Gc.minor_collections - gc0.Gc.minor_collections) );
         ( "gc_major_collections",
           Json.Int (gc.Gc.major_collections - gc0.Gc.major_collections) );
         ("ladder", ladder_json);
         ("layer", metrics_obj (Metrics.sim_layer r));
         ( "host_layer",
           if traced then metrics_obj (Metrics.host_layer tracer) else Json.Null );
         ( "per_system",
           Json.List
             (List.map
                (fun (s : Machine.stats) ->
                  Json.Obj
                    [
                      ("system", Json.Str s.Machine.label);
                      ("emits", Json.Int s.Machine.emits);
                      ("charged", Json.Int (Int64.to_int s.Machine.charged));
                      ("peak_frames", Json.Int s.Machine.peak_frames);
                      ("steals", Json.Int s.Machine.steals);
                      ( "counters",
                        Json.Obj
                          (List.map
                             (fun (k, v) -> (k, Json.Int v))
                             s.Machine.counters) );
                    ])
                r.Workloads.stats) );
       ])

let probe () = print (probe_json (Probe.measure ()))

let paper () =
  let point (p : Paper.point) =
    Json.Obj
      [
        ("name", Json.Str p.Paper.name);
        ("value", Json.Float p.Paper.value);
        ("unit", Json.Str p.Paper.unit_);
        ("source", Json.Str p.Paper.source);
      ]
  in
  print
    (Json.Obj
       [
         ("redis-bgsave", Json.List (List.map point Paper.redis));
         ("faas-zygote", Json.List [ point Paper.faas_ratio ]);
         ("fork-storm-512", Json.Null);
       ])

let () =
  let command = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref Workloads.default_seed in
  let traced = ref false and setup_only = ref false in
  let t0_ns = ref (-1) and spans_out = ref None in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N keyspace seed");
      ("--traced", Arg.Set traced, " record layer spans");
      ("--setup-only", Arg.Set setup_only, " stop at the first simulated event");
      ("--t0-ns", Arg.Set_int t0_ns, "NS monotonic ns when the process was started");
      ("--spans-out", Arg.String (fun p -> spans_out := Some p), "FILE span JSONL");
    ]
  in
  let usage = "main.exe (iter|experiments|probe|paper) [options]" in
  (try
     Arg.parse_argv ~current:(ref 1) Sys.argv specs
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with
  | Arg.Bad msg | Arg.Help msg ->
      prerr_string msg;
      exit 2);
  let need_workload () =
    match Workloads.of_name !workload with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S\n" !workload;
        exit 2
  in
  match command with
  | "iter" ->
      let t0_ns = if !t0_ns < 0 then now_ns () else !t0_ns in
      iter ~workload:(need_workload ()) ~seed:!seed ~traced:!traced
        ~setup_only:!setup_only ~t0_ns ~spans_out:!spans_out
  | "experiments" ->
      let w = need_workload () in
      print (Json.Obj [ ("rows", Json.List (Workloads.experiment_rows w)) ])
  | "probe" -> probe ()
  | "paper" -> paper ()
  | _ ->
      prerr_endline usage;
      exit 2
