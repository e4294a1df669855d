(* Golden-trace regression: every meter counter, the engine's advanced
   cycles and the per-phase span totals of the golden scenarios
   ({!Golden_scenarios}) must match golden/golden_seed.txt exactly.
   Each scenario runs through the shared machine lifecycle, so it is
   also audited, swept and protocol-linted before its dump is compared.
   Regenerate the recording with golden/golden_dump.exe only for an
   intentional accounting change, and say so in the commit message. *)

let golden_path = "../golden/golden_seed.txt"

(* golden/golden_seed.txt parsed into scenario -> expected lines
   (each block includes its own SCENARIO header line). *)
let expected_scenarios =
  lazy
    (let ic = open_in golden_path in
     let lines = ref [] in
     (try
        while true do
          lines := input_line ic :: !lines
        done
      with End_of_file -> close_in ic);
     let blocks = ref [] and current = ref [] in
     let flush () =
       match List.rev !current with
       | [] -> ()
       | header :: _ as block ->
           blocks :=
             (String.sub header 9 (String.length header - 9), block) :: !blocks
     in
     List.iter
       (fun line ->
         if String.length line > 9 && String.sub line 0 9 = "SCENARIO " then (
           flush ();
           current := [ line ])
         else if !current <> [] then current := line :: !current)
       (List.rev !lines);
     flush ();
     List.rev !blocks)

let check_scenario scenario run () =
  let expected =
    match List.assoc_opt scenario (Lazy.force expected_scenarios) with
    | Some lines -> lines
    | None -> Alcotest.failf "scenario %s missing from %s" scenario golden_path
  in
  Alcotest.(check (list string)) scenario expected (run ())

(* Every block in the recording must have a live check — a scenario
   silently dropped from the scenario list would hollow out the
   regression. *)
let covers_recording () =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name Golden_scenarios.all) then
        Alcotest.failf "recorded scenario %s has no golden test" name)
    (Lazy.force expected_scenarios)

let suite =
  List.map
    (fun (name, run) ->
      Alcotest.test_case name `Slow (check_scenario name run))
    Golden_scenarios.all
  @ [ Alcotest.test_case "recording fully covered" `Quick covers_recording ]
