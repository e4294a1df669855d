(* The sanitizer/linter test suite has four legs:
   - catalogue sanity: stable ids, one chaos scenario per invariant;
   - precision via fault injection: every Chaos scenario is detected, and
     every violation it reports carries exactly the intended invariant;
   - zero false positives: the uninjected machine and stream are clean,
     and real experiment runs (which call [Checker.assert_safe] on every
     machine before returning) complete across systems;
   - the runtime detectors (R1-R4): every row of the harness chaos table
     fails its control run with exactly its invariant, and the same run
     without the injection is clean. *)

module Invariant = Ufork_analysis.Invariant
module Chaos = Ufork_analysis.Chaos
module Strategy = Ufork_core.Strategy
module E = Ufork_workload.Experiments

let all_ids =
  [ "S1"; "S2"; "S3"; "S4"; "S5"; "S6"; "S7"; "S8"; "S9"; "S10"; "S11";
    "L1"; "L2"; "L3"; "L4"; "L5" ]

(* R1 (data-race), R2 (lock-order), R3 (lock-stall) and R4
   (cap-provenance) close the catalogue; their chaos scenarios are
   dynamic runs — the rows of [E.chaos_table] — so they live outside
   [Chaos.scenarios]. *)
let catalogue_ids = all_ids @ [ "R1"; "R2"; "R3"; "R4" ]

let test_catalogue () =
  Alcotest.(check (list string)) "stable ids" catalogue_ids
    (List.map Invariant.id Invariant.all);
  Alcotest.(check int) "ids unique" (List.length Invariant.all)
    (List.length (List.sort_uniq compare (List.map Invariant.id Invariant.all)));
  Alcotest.(check int) "names unique" (List.length Invariant.all)
    (List.length
       (List.sort_uniq compare (List.map Invariant.name Invariant.all)));
  Alcotest.(check string) "empty report" "" (Invariant.report [])

let test_scenarios_cover_catalogue () =
  (* One injection per invariant, in catalogue order: the chaos suite is
     the sanitizer's coverage map. *)
  Alcotest.(check (list string)) "one scenario per invariant" all_ids
    (List.map (fun s -> Invariant.id s.Chaos.expected) Chaos.scenarios)

let test_clean_machine () =
  Alcotest.(check string) "uninjected machine sweeps clean" ""
    (Invariant.report (Chaos.clean_machine ()))

let test_clean_protocol () =
  Alcotest.(check string) "well-formed stream lints clean" ""
    (Invariant.report (Chaos.clean_protocol ()))

(* Each scenario must be detected, and detected precisely: all reported
   violations carry the scenario's own invariant, proving the injected
   fault does not bleed into neighbouring detectors. *)
let scenario_case (s : Chaos.scenario) =
  ( s.Chaos.name,
    `Quick,
    fun () ->
      let vs = s.Chaos.detect () in
      Alcotest.(check bool)
        (Printf.sprintf "%s detected" s.Chaos.name)
        true (vs <> []);
      List.iter
        (fun (v : Invariant.violation) ->
          Alcotest.(check string)
            (Printf.sprintf "%s trips only %s" s.Chaos.name
               (Invariant.id s.Chaos.expected))
            (Invariant.id s.Chaos.expected)
            (Invariant.id v.Invariant.invariant))
        vs )

(* Real runs: every experiment driver ends with [Checker.assert_safe],
   which raises on any S- or L-violation. Recording is forced on so the
   protocol linter sees the genuine event stream, not an empty one. *)
let test_clean_runs () =
  E.with_run { E.empty_run with record = true } (fun () ->
      List.iter
        (fun sys -> ignore (E.hello_run sys))
        [
          E.Ufork Strategy.Copa;
          E.Ufork Strategy.Coa;
          E.Ufork Strategy.Full_copy;
          E.Ufork_toctou Strategy.Copa;
          E.Cheribsd;
          E.Nephele;
        ];
      ignore
        (E.unixbench_run (E.Ufork Strategy.Copa) ~spawn_iters:20
           ~context1_iters:200);
      ignore
        (E.redis_run (E.Ufork Strategy.Coa) ~entries:20 ~value_len:4096
           ~db_label:"80 KB"))

(* {1 The runtime detectors: one case per chaos-table row} *)

(* The violation lines of an [Invariant.report]:
   "[R1:data-race] critical: <subject> — <detail>". *)
let violation_lines report =
  List.filter
    (fun line -> String.starts_with ~prefix:"[" line)
    (String.split_on_char '\n' report)

let contains needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_table_covers_runtime_invariants () =
  Alcotest.(check (list string)) "R1-R4 each certified" [ "R1"; "R2"; "R3"; "R4" ]
    (List.sort_uniq compare
       (List.map (fun (c : E.chaos) -> Invariant.id c.E.expect) E.chaos_table));
  let names = List.map (fun (c : E.chaos) -> c.E.name) E.chaos_table in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let chaos_row_case (c : E.chaos) =
  let id = Invariant.id c.E.expect in
  ( Printf.sprintf "chaos row %s (%s)" c.E.name id,
    `Quick,
    fun () ->
      let system, workload, cores = c.E.control in
      let checked r =
        E.with_run
          { r with E.record = true; cores = Some cores }
          (fun () -> E.check system workload)
      in
      (match checked { E.empty_run with chaos = Some c.E.name } with
      | Ok () -> Alcotest.failf "%s: injected control passed" c.E.name
      | Error report ->
          let lines = violation_lines report in
          Alcotest.(check bool) "at least one violation" true (lines <> []);
          List.iter
            (fun line ->
              Alcotest.(check bool)
                (Printf.sprintf "only %s: %s" id line)
                true
                (String.starts_with ~prefix:("[" ^ id ^ ":") line);
              Option.iter
                (fun subject ->
                  Alcotest.(check bool)
                    (Printf.sprintf "accuses %s: %s" subject line)
                    true
                    (contains (": " ^ subject ^ " ") line))
                c.E.subject)
            lines);
      match checked { E.empty_run with detect = [ c.E.expect ] } with
      | Ok () -> ()
      | Error report ->
          Alcotest.failf "%s: uninjected twin failed\n%s" c.E.name report )

let suite =
  [
    ("invariant catalogue", `Quick, test_catalogue);
    ("chaos covers catalogue", `Quick, test_scenarios_cover_catalogue);
    ("clean machine", `Quick, test_clean_machine);
    ("clean protocol", `Quick, test_clean_protocol);
  ]
  @ List.map scenario_case Chaos.scenarios
  @ [
      ("clean experiment runs", `Quick, test_clean_runs);
      ( "chaos table covers R1-R4",
        `Quick,
        test_table_covers_runtime_invariants );
    ]
  @ List.map chaos_row_case E.chaos_table
