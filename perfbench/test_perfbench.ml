(* Tests for the benchmark's own code: the tracer's tiling, the
   non-perturbation of the simulated results by tracing, the composed
   workloads against Experiments, the paper error measure,
   and metric names. The workloads run scaled down. *)

open Perfbench

let feq a b = Float.abs (a -. b) < 1e-9

(* {1 Tiling} *)

let test_tiling_synthetic () =
  let now = ref 0 in
  let t = Tracer.create ~clock:(fun () -> !now) ~words:(fun () -> 0.) ~run_id:"t" () in
  now := 10;
  Tracer.span t Layer.Apps "a" (fun () ->
      now := 15;
      Tracer.span t Layer.Sas "b" (fun () -> now := 18);
      now := 20);
  now := 25;
  (try
     Tracer.span t Layer.Workload "c" (fun () ->
         now := 27;
         Tracer.span t Layer.Sas "d" (fun () ->
             now := 30;
             raise Exit))
   with Exit -> ());
  now := 31;
  Tracer.finish t;
  let self l = Tracer.self_ns t l in
  Alcotest.(check int) "wall" 31 (Tracer.wall_ns t);
  Alcotest.(check int) "bench" (10 + 5 + 1) (self Layer.Bench);
  Alcotest.(check int) "apps" (5 + 2) (self Layer.Apps);
  Alcotest.(check int) "sas" (3 + 3) (self Layer.Sas);
  Alcotest.(check int) "workload" 2 (self Layer.Workload);
  Alcotest.(check int) "sum" 31
    (List.fold_left (fun acc l -> acc + self l) 0 Layer.all);
  Alcotest.(check int) "inclusive a" 10 (Tracer.total_ns t "a");
  Alcotest.(check (list string)) "entry order" [ "a"; "b"; "c"; "d" ]
    (List.map (fun s -> s.Tracer.name) (Tracer.spans t))

let test_off_records_nothing () =
  let v = Tracer.span Tracer.off Layer.Apps "x" (fun () -> 42) in
  Alcotest.(check int) "value" 42 v;
  Alcotest.(check int) "no spans" 0 (List.length (Tracer.spans Tracer.off))

(* Small versions of the three workloads: redis 10 x 100 KiB, storm on
   8 cores, faas over 10 simulated ms. *)
let scale = function
  | Workloads.Redis_bgsave -> 100
  | Workloads.Fork_storm_512 -> 64
  | Workloads.Faas_zygote -> 25

let run ?(traced = false) w =
  let tracer =
    if traced then Tracer.create ~run_id:(Workloads.name w) () else Tracer.off
  in
  let r =
    Workloads.run ~scale:(scale w) tracer w ~seed:Workloads.default_seed
      ~at_run:ignore
  in
  Tracer.finish tracer;
  (r, tracer)

let test_tiling_real w () =
  let _, t = run ~traced:true w in
  let sum = List.fold_left (fun acc l -> acc + Tracer.self_ns t l) 0 Layer.all in
  Alcotest.(check int) "self times tile the traced wall" (Tracer.wall_ns t) sum;
  Alcotest.(check bool) "spans recorded" true (Tracer.spans t <> []);
  Alcotest.(check bool) "every span closed" true
    (List.for_all (fun s -> s.Tracer.t1_ns >= s.Tracer.t0_ns) (Tracer.spans t))

(* {1 Non-perturbation and Experiments} *)

let json_list xs = List.map Json.to_string xs

let test_non_perturbation w () =
  let u, _ = run w in
  let t, _ = run ~traced:true w in
  let sums (r : Workloads.result) =
    List.map
      (fun (s : Machine.stats) ->
        (s.Machine.emits, s.Machine.charged, s.Machine.counters, s.Machine.spans))
      r.Workloads.stats
  in
  Alcotest.(check (list string)) "rows" (json_list u.Workloads.rows)
    (json_list t.Workloads.rows);
  Alcotest.(check bool) "emits, charged cycles, counters, spans" true
    (sums u = sums t);
  Alcotest.(check (list int64)) "fork latencies" u.Workloads.fork_cycles
    t.Workloads.fork_cycles;
  Alcotest.(check bool) "per-layer counters" true
    (Metrics.sim_layer u = Metrics.sim_layer t);
  Alcotest.(check bool) "every check passed" true
    (List.for_all (fun (c : Machine.check) -> c.Machine.ok) t.Workloads.checks)

let test_experiment_rows w () =
  let r, _ = run w in
  Alcotest.(check (list string)) "composed = Experiments"
    (json_list (Workloads.experiment_rows ~scale:(scale w) w))
    (json_list r.Workloads.rows);
  Alcotest.(check int) "no failed operation" 0 r.Workloads.failed

let test_seed_changes_only_redis_inputs () =
  let at seed =
    Workloads.run ~scale:100 Tracer.off Workloads.Redis_bgsave ~seed ~at_run:ignore
  in
  let a = at 1 and b = at 2 in
  Alcotest.(check bool) "both dumps verify" true
    (a.Workloads.failed = 0 && b.Workloads.failed = 0);
  let values seed =
    Ufork_workload.Keyspace.expected_entries ~entries:10 ~value_len:64 ~seed
  in
  Alcotest.(check bool) "the seed changes the values" true
    (values 1L <> values 2L);
  Alcotest.(check bool) "seed_used" true
    (Workloads.seed_used Workloads.Redis_bgsave
    && not (Workloads.seed_used Workloads.Faas_zygote))

(* {1 Paper error} *)

let test_paper_err () =
  Alcotest.(check bool) "one point" true (feq (Paper.err_pct [ (110., 100.) ]) 10.);
  Alcotest.(check bool) "mean of absolute errors" true
    (feq (Paper.err_pct [ (90., 100.); (100., 100.); (3., 2.) ]) (100. *. 0.6 /. 3.));
  Alcotest.check_raises "empty" (Invalid_argument "Paper.err_pct: no points")
    (fun () -> ignore (Paper.err_pct []));
  Alcotest.(check (list (float 0.)))
    "redis references" [ 260.; 23_200.; 109.; 158.; 6.; 144.; 56. ]
    (List.map (fun p -> p.Paper.value) Paper.redis);
  let r, _ = run Workloads.Faas_zygote in
  let rate name =
    List.find_map
      (function
        | Json.Obj kvs when List.assoc "system" kvs = Json.Str name -> (
            match List.assoc "throughput_per_s" kvs with
            | Json.Float f -> Some f
            | _ -> None)
        | _ -> None)
      r.Workloads.rows
    |> Option.get
  in
  let ratio = rate "uFork/CoPA" /. rate "CheriBSD" in
  Alcotest.(check bool) "faas error is the ratio's" true
    (feq (Option.get r.Workloads.paper_err_pct)
       (100. *. Float.abs (ratio -. 1.24) /. 1.24));
  let storm, _ = run Workloads.Fork_storm_512 in
  Alcotest.(check bool) "storm is unvalidated" true
    (storm.Workloads.paper_err_pct = None)

(* {1 Metric names} *)

let declared_names () =
  let text = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  let key = "\"name\": \"" in
  let find from =
    let rec go i =
      if i + String.length key > String.length text then None
      else if String.sub text i (String.length key) = key then Some i
      else go (i + 1)
    in
    go from
  in
  let rec scan from acc =
    match find from with
    | None -> List.rev acc
    | Some i ->
        let start = i + String.length key in
        let stop = String.index_from text start '"' in
        scan stop (String.sub text start (stop - start) :: acc)
  in
  scan 0 []

let test_metric_names () =
  let r, t = run ~traced:true Workloads.Fork_storm_512 in
  let emitted =
    List.map fst (Metrics.sim_layer r) @ List.map fst (Metrics.host_layer t)
  in
  let declared = declared_names () in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " is a valid name") true (Metrics.name_ok n))
    (emitted @ declared);
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " is declared") true (List.mem n declared))
    emitted;
  Alcotest.(check bool) "invalid names rejected" false
    (Metrics.name_ok "a b" || Metrics.name_ok "" || Metrics.name_ok "x/y")

let per_workload name f =
  List.map
    (fun w ->
      Alcotest.test_case (Printf.sprintf "%s %s" name (Workloads.name w)) `Quick (f w))
    Workloads.all

let () =
  Alcotest.run "perfbench"
    [
      ( "tiling",
        Alcotest.test_case "synthetic" `Quick test_tiling_synthetic
        :: Alcotest.test_case "off" `Quick test_off_records_nothing
        :: per_workload "workload" test_tiling_real );
      ("non-perturbation", per_workload "traced = untraced" test_non_perturbation);
      ( "experiments",
        Alcotest.test_case "seed" `Quick test_seed_changes_only_redis_inputs
        :: per_workload "rows" test_experiment_rows );
      ("paper", [ Alcotest.test_case "err_pct" `Quick test_paper_err ]);
      ("names", [ Alcotest.test_case "metric names" `Quick test_metric_names ]);
    ]
