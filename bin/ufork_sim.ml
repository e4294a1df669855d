(* CLI driver: [run] runs one workload of the registry
   ({!Ufork_workload.Experiments.workloads}) on one system under the
   sanitizer, protocol linter and accounting audit, plus any detectors
   and observers asked for; [lint] is the static linter. The paper-sized
   figure sweeps and the ablations are bench/main.exe targets.

     dune exec bin/ufork_sim.exe -- run hello --system nephele
     dune exec bin/ufork_sim.exe -- run faas --system cheribsd
     dune exec bin/ufork_sim.exe -- run redis --observe stats   # event audit
     dune exec bin/ufork_sim.exe -- run storm --cores 64 --check race,lockdep
     dune exec bin/ufork_sim.exe -- lint . *)

open Cmdliner
module Strategy = Ufork_core.Strategy
module E = Ufork_workload.Experiments
module Units = Ufork_util.Units
module Engine = Ufork_sim.Engine

let systems =
  [
    ("ufork-copa", E.Ufork Strategy.Copa);
    ("ufork-coa", E.Ufork Strategy.Coa);
    ("ufork-full", E.Ufork Strategy.Full_copy);
    ("ufork-toctou", E.Ufork_toctou Strategy.Copa);
    ("cheribsd", E.Cheribsd);
    ("nephele", E.Nephele);
    ("linux", E.Linux_ref);
    ("ufork", E.Ufork Strategy.Copa);
  ]

let system_name s = fst (List.find (fun (_, s') -> s' = s) systems)

let system_conv =
  let parse name =
    match List.assoc_opt name systems with
    | Some s -> Ok s
    | None -> Error (`Msg (Printf.sprintf "unknown system %S" name))
  in
  let print ppf s = Format.pp_print_string ppf (E.system_label s) in
  Arg.conv (parse, print)

(* run: the one observed run. Every run records its event stream, so
   the protocol linter (L1-L5) replays it next to the state sweep
   (S1-S11) and the cycle-accounting audit; the runtime detectors and
   the observers compose on top, and every failed check takes the same
   path: the report on stderr, exit 1, the artifacts still written. *)
let run_cmd =
  let module Invariant = Ufork_analysis.Invariant in
  let module Causal = Ufork_analysis.Causal in
  let module Trace = Ufork_sim.Trace in
  let module Histogram = Ufork_sim.Histogram in
  (* The runtime invariants [--check] arms, in catalogue order. *)
  let detectors =
    [
      ( Invariant.Data_race,
        "race",
        "the happens-before race detector: conflicting shared-state writes \
         with no ordering edge (R1)" );
      ( Invariant.Lock_order,
        "lockdep",
        "the lock-order checker: cycles or descending pt-shard nestings in \
         the acquisition graph built from the lock instrumentation (R2)" );
      ( Invariant.Lock_stall,
        "stall",
        "the lock-stall check: one lock's wait edges cover at least 20% of \
         the whole run's critical path (R3)" );
      ( Invariant.Cap_provenance,
        "capflow",
        "the capability-provenance taint checker: every tagged capability \
         reachable in a μprocess's pages carries that μprocess's \
         provenance, checked on the store/load stream, at every fork's end \
         and in the final sweep (R4)" );
    ]
  in
  let detector_name inv =
    let _, name, _ = List.find (fun (i, _, _) -> i = inv) detectors in
    name
  in
  let workload =
    Arg.(
      value
      & pos 0 (some (enum E.workloads)) None
      & info [] ~docv:"WORKLOAD"
          ~doc:
            ("Workload to run, one of "
            ^ String.concat ", " (List.map fst E.workloads)
            ^ " (default hello). The storm runs one concurrent forker per \
               core."))
  in
  let system =
    Arg.(
      value
      & opt (some system_conv) None
      & info [ "system"; "s" ] ~docv:"SYSTEM"
          ~doc:
            "OS to run on: ufork-copa (default), ufork-coa, ufork-full, \
             ufork-toctou, cheribsd, nephele, linux.")
  in
  let cores =
    Arg.(
      value
      & opt (some int) None
      & info [ "cores" ] ~docv:"N"
          ~doc:
            "Core count to boot with (default: the workload's own, \
             typically 4).")
  in
  let check =
    Arg.(
      value
      & opt (list (enum (List.map (fun (i, n, _) -> (n, i)) detectors))) []
      & info [ "check" ] ~docv:"DETECTOR,..."
          ~doc:
            ("Arm runtime detectors; any violation fails the run. "
            ^ String.concat "; "
                (List.map
                   (fun (_, n, d) -> Printf.sprintf "$(b,%s) arms %s" n d)
                   detectors)
            ^ "."))
  in
  let chaos =
    Arg.(
      value
      & opt
          (some
             (enum
                (("list", `List)
                :: List.map (fun (c : E.chaos) -> (c.E.name, `Row c))
                     E.chaos_table)))
          None
      & info [ "chaos" ] ~docv:"NAME"
          ~doc:
            "Fault injection: inject chaos row $(docv) and arm the detector \
             its invariant needs. The run must fail with exactly that \
             invariant. $(b,--system), $(b,--cores) and WORKLOAD default to \
             the row's control. $(b,--chaos list) prints the table.")
  in
  let trace_out =
    let out =
      Arg.(
        value
        & opt (some string) None
        & info [ "trace-out"; "o" ] ~docv:"FILE"
            ~doc:"Write the recorded event trace to $(docv).")
    in
    let format =
      Arg.(
        value
        & opt (enum [ ("jsonl", E.Jsonl); ("chrome", E.Chrome) ]) E.Jsonl
        & info [ "format"; "f" ] ~docv:"FMT"
            ~doc:
              "Trace encoding: jsonl (default; one JSON record per line) or \
               chrome (load in chrome://tracing or Perfetto).")
    in
    Term.(
      const (fun out format -> Option.map (fun o -> (o, format)) out)
      $ out $ format)
  in
  let observe =
    Arg.(
      value
      & opt
          (list
             (enum
                [
                  ("profile", `Profile); ("stats", `Stats);
                  ("explain", `Explain);
                ]))
          []
      & info [ "observe" ] ~docv:"OBSERVER,..."
          ~doc:
            "Report observers after the run: $(b,profile) (folded-stack \
             flamegraph plus per-span latency histograms, p50/p90/p99/max), \
             $(b,stats) (Prometheus snapshot of the counters, spans and lock \
             contention, from virtual-time gauge sampling) and $(b,explain) \
             (the weighted critical path of a fork window, span-level blame \
             and the top lock wait chains).")
  in
  let flame_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame-out" ] ~docv:"FILE"
          ~doc:
            "Profile, writing the folded flamegraph stacks to $(docv) \
             instead of stdout (feed to flamegraph.pl or \
             inferno-flamegraph).")
  in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv-out" ] ~docv:"FILE"
          ~doc:
            "Stats, also writing the sampled time series as CSV to $(docv) \
             (one block per booted machine, blocks separated by a blank \
             line).")
  in
  let sample_interval =
    Arg.(
      value & opt int 250_000
      & info [ "sample-interval" ] ~docv:"CYCLES"
          ~doc:
            "Stats gauge-sampling interval in simulated cycles (default \
             250000 = 100 us at the simulated 2.5 GHz clock).")
  in
  let explain =
    let fork_n =
      Arg.(
        value & opt int 0
        & info [ "fork" ] ~docv:"N"
            ~doc:
              "Explain the $(docv)th completed fork window (\"fork\" span \
               open to close, anchored at the forker). Default 0; ignored \
               with $(b,--interval).")
    in
    let interval =
      let parse s =
        match String.index_opt s ':' with
        | Some i -> (
            let a = String.sub s 0 i
            and b = String.sub s (i + 1) (String.length s - i - 1) in
            match (Int64.of_string_opt a, Int64.of_string_opt b) with
            | Some a, Some b when Int64.compare a b <= 0 -> Ok (a, b)
            | _ -> Error (`Msg (Printf.sprintf "bad interval %S" s)))
        | None -> Error (`Msg (Printf.sprintf "bad interval %S (want A:B)" s))
      in
      let print ppf (a, b) = Format.fprintf ppf "%Ld:%Ld" a b in
      Arg.(
        value
        & opt (some (conv (parse, print))) None
        & info [ "interval" ] ~docv:"A:B"
            ~doc:
              "Explain the cycle interval [$(docv)] instead of a fork \
               window (anchor picked automatically).")
    in
    let top =
      Arg.(
        value & opt int 5
        & info [ "top" ] ~docv:"K"
            ~doc:
              "Explain: report the top $(docv) wait chains (default 5, at \
               least 0).")
    in
    let artifact name doc =
      Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)
    in
    Term.(
      const (fun fork_n interval top dot json chrome ->
          ( fork_n,
            interval,
            top,
            [
              (dot, "dot graph", Causal.to_dot);
              (json, "analysis JSON", Causal.to_json);
              (chrome, "chrome trace", Causal.to_chrome);
            ] ))
      $ fork_n $ interval $ top
      $ artifact "dot"
          "Explain, writing the critical path as a Graphviz digraph to \
           $(docv)."
      $ artifact "json"
          "Explain, writing the full analysis (segments, blame, chains, \
           per-lock waits) as JSON to $(docv)."
      $ artifact "chrome-out"
          "Explain, writing the critical path as a Chrome about:tracing / \
           Perfetto JSON file to $(docv).")
  in
  let print_table () =
    Printf.printf "%-20s %-6s %-16s %-12s %-9s %5s  %-9s  %s\n" "chaos"
      "expect" "subject" "system" "workload" "cores" "detector" "injection";
    List.iter
      (fun (c : E.chaos) ->
        let system, workload, cores = c.E.control in
        Printf.printf "%-20s %-6s %-16s %-12s %-9s %5d  %-9s  %s\n" c.E.name
          (Invariant.id c.E.expect)
          (Option.value c.E.subject ~default:"-")
          (system_name system) (E.workload_name workload) cores
          (detector_name c.E.expect) c.E.doc)
      E.chaos_table
  in
  let report_profile flame_out =
    let traces = E.profiled_traces () in
    let folded = String.concat "" (List.map Trace.folded_stacks traces) in
    if String.trim folded = "" then begin
      Printf.eprintf "profile: no cycles attributed (empty flamegraph)\n";
      exit 1
    end;
    (match flame_out with
    | Some path -> Printf.printf "flamegraph stacks written to %s\n" path
    | None ->
        print_newline ();
        print_string folded);
    (* Merge each span name's duration histogram across the machines
       this workload booted (comparative runs boot several). *)
    let merged = Hashtbl.create 16 in
    List.iter
      (fun tr ->
        List.iter
          (fun (name, h) ->
            Hashtbl.replace merged name
              (match Hashtbl.find_opt merged name with
              | Some prev -> Histogram.merge prev h
              | None -> h))
          (Trace.span_histograms tr))
      traces;
    let rows =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) merged [])
    in
    Printf.printf "\n%-24s %8s %12s %12s %12s %12s\n" "span" "count"
      "p50(us)" "p90(us)" "p99(us)" "max(us)";
    List.iter
      (fun (name, h) ->
        let us q = Units.us_of_cycles (Histogram.quantile h q) in
        Printf.printf "%-24s %8d %12.2f %12.2f %12.2f %12.2f\n" name
          (Histogram.count h) (us 0.5) (us 0.9) (us 0.99)
          (Units.us_of_cycles (Histogram.max_value h)))
      rows
  in
  let report_stats csv_out =
    let traces = E.profiled_traces () in
    print_newline ();
    List.iter (fun tr -> print_string (Trace.to_prometheus_string tr)) traces;
    (* Per-lock contention counters from every machine this run booted,
       in the same Prometheus text format. *)
    print_string (Ufork_sim.Sync.lock_contention_prometheus ());
    Option.iter
      (fun path ->
        E.write_artifact path (fun oc ->
            List.iteri
              (fun i tr ->
                if i > 0 then output_char oc '\n';
                output_string oc (Trace.samples_csv tr))
              traces);
        let samples =
          List.fold_left
            (fun acc tr -> acc + List.length (Trace.samples tr))
            0 traces
        in
        Printf.printf "%d sample(s) written to %s\n" samples path)
      csv_out
  in
  let report_explain (fork_n, interval, top, artifacts) =
    let g =
      match E.causal_graph () with
      | Some g -> g
      | None ->
          Printf.eprintf "explain: no causal graph collected\n";
          exit 1
    in
    let report =
      try
        match interval with
        | Some (a, b) -> Causal.analyze g ~t0:a ~t1:b ()
        | None -> Causal.analyze_fork g fork_n
      with
      | Causal.Audit_failure msg ->
          Printf.eprintf "explain: path audit FAILED: %s\n" msg;
          exit 1
      | Invalid_argument msg ->
          Printf.eprintf "explain: %s\n" msg;
          exit 1
    in
    Format.printf "%a@." (Causal.pp_report ~top) report;
    List.iter
      (fun (path, what, render) ->
        Option.iter
          (fun path ->
            E.write_artifact path (fun oc -> output_string oc (render report));
            Printf.printf "%s written to %s\n" what path)
          path)
      artifacts
  in
  let run system workload cores checks chaos trace_out observe flame_out
      csv_out sample_interval explain =
    let row =
      match chaos with
      | None -> None
      | Some `List ->
          print_table ();
          exit 0
      | Some (`Row c) -> Some c
    in
    let system, workload, cores =
      match row with
      | None ->
          ( Option.value system ~default:(E.Ufork Strategy.Copa),
            Option.value workload ~default:E.Hello,
            cores )
      | Some c ->
          let s, w, n = c.E.control in
          ( Option.value system ~default:s,
            Option.value workload ~default:w,
            Some (Option.value cores ~default:n) )
    in
    let _, _, top, artifacts = explain in
    let profile = List.mem `Profile observe || Option.is_some flame_out in
    let stats = List.mem `Stats observe || Option.is_some csv_out in
    let explaining =
      List.mem `Explain observe
      || List.exists (fun (path, _, _) -> Option.is_some path) artifacts
    in
    if stats && sample_interval <= 0 then begin
      Printf.eprintf "run: --sample-interval must be positive\n";
      exit 1
    end;
    if top < 0 then begin
      Printf.eprintf "run: --top must be non-negative (got %d)\n" top;
      exit 1
    end;
    Option.iter
      (fun n ->
        if n < 1 || n > Engine.max_cores then begin
          Printf.eprintf "run: --cores must be between 1 and %d (got %d)\n"
            Engine.max_cores n;
          exit 1
        end)
      cores;
    let r =
      {
        E.cores;
        record = true;
        detect = checks;
        chaos = Option.map (fun c -> c.E.name) row;
        trace_out;
        profile_out = flame_out;
        profiles = profile || stats;
        sample_interval =
          (if stats then Some (Int64.of_int sample_interval) else None);
        causal = explaining;
      }
    in
    let name = E.workload_name workload and label = E.system_label system in
    E.with_run r (fun () ->
        match E.check system workload with
        | Error report ->
            Printf.eprintf "check %s on %s: FAILED\n%s\n" name label report;
            exit 1
        | Ok summary ->
            print_endline summary;
            Option.iter
              (fun (path, _) -> Printf.printf "trace written to %s\n" path)
              trace_out;
            if profile then report_profile flame_out;
            if stats then report_stats csv_out;
            if explaining then report_explain explain;
            Printf.printf
              "check %s on %s: clean — state invariants S1-S11, protocol \
               rules L1-L5%s, cycle accounting\n"
              name label
              (String.concat ""
                 (List.filter_map
                    (fun (inv, _, _) ->
                      if
                        List.mem inv checks
                        || Option.fold ~none:false
                             ~some:(fun c -> c.E.expect = inv)
                             row
                      then
                        Some
                          (Printf.sprintf ", %s %s" (Invariant.name inv)
                             (Invariant.id inv))
                      else None)
                    detectors)))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a workload under the machine-state sanitizer, the trace \
          protocol linter and the cycle-accounting audit, with any \
          combination of runtime detectors and observers; non-zero exit \
          on any violation")
    Term.(
      const run $ system $ workload $ cores $ check $ chaos $ trace_out
      $ observe $ flame_out $ csv_out $ sample_interval $ explain)

(* lint: the AST-level discipline linter over the simulator's own
   sources, exposed as a subcommand so one binary carries both the
   dynamic checks (run) and the static ones. *)
let lint_cmd =
  let module Rules = Ufork_lint_core.Lint_rules in
  let module Lint = Ufork_lint_core.Lint_engine in
  let module Lockdep = Ufork_lint_core.Lockdep in
  let module Capflow = Ufork_lint_core.Capflow in
  let root =
    Arg.(
      value & pos 0 dir "."
      & info [] ~docv:"ROOT"
          ~doc:
            "Repository root to lint; scans every .ml/.mli under \
             $(docv)/lib, $(docv)/bin, $(docv)/bench and $(docv)/tools.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit findings as a JSON array on stdout.")
  in
  let list_rules =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:
            "Print the rule catalogue (id, severity, one-line description) \
             and exit.")
  in
  let md =
    Arg.(
      value & flag
      & info [ "md" ]
          ~doc:
            "With $(b,--list): emit the catalogue as a markdown table (the \
             one checked into DESIGN.md).")
  in
  let lock_graph =
    Arg.(
      value
      & opt (some (enum [ ("dot", `Dot); ("json", `Json) ])) None
      & info [ "lock-graph" ] ~docv:"FMT"
          ~doc:
            "Instead of linting, export the lock-order graph inferred by \
             the D10 analysis — hierarchy, inferred and declared edges — \
             as $(docv): dot (Graphviz) or json.")
  in
  let run root json list_rules md lock_graph =
    if list_rules then begin
      Rules.print_catalogue ~md ();
      exit 0
    end;
    (match lock_graph with
    | Some fmt ->
        let g = Lockdep.graph_of_tree root in
        print_string
          (match fmt with
          | `Dot -> Lockdep.to_dot g
          | `Json -> Lockdep.to_json g);
        exit 0
    | None -> ());
    let findings =
      List.sort
        (fun (a : Lint.finding) b ->
          compare (a.Lint.file, a.Lint.line, a.Lint.col)
            (b.Lint.file, b.Lint.line, b.Lint.col))
        (Lint.lint_tree root @ Lockdep.analyze_tree root
        @ Capflow.analyze_tree root)
    in
    if json then print_endline (Lint.to_json findings)
    else begin
      List.iter (fun f -> Format.printf "%a@." Lint.pp_finding f) findings;
      if findings = [] then
        Printf.printf
          "lint: clean — %d rules (D1-D14) over lib/, bin/, bench/, tools/ \
           (%d files)\n"
          (List.length Rules.all)
          (List.length (Lint.tree_files root))
    end;
    if findings <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically lint the simulator sources against the discipline \
          catalogue (charging, memops, fork spine, gauge keys, \
          determinism, lock order); non-zero exit on any finding")
    Term.(const run $ root $ json $ list_rules $ md $ lock_graph)

let default =
  Term.(
    ret
      (const (fun () -> `Help (`Pager, None)) $ const ()))

let () =
  let info =
    Cmd.info "ufork_sim" ~version:"1.0"
      ~doc:
        "Simulation-based reproduction of uFork (SOSP 2025): POSIX fork \
         within a single-address-space OS"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ run_cmd; lint_cmd ]))
