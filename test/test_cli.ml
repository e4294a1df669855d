(* The front ends reject a flag value they cannot honour (a core count
   the engine cannot boot, a regression gate no run can pass) with a
   one-line error naming the flag and an ordinary failure exit — never
   an uncaught Invalid_argument (exit 125). Runs the built executables;
   validation happens before any machine boots, so each call is
   instant. *)

(* Under [dune runtest] the cwd is _build/default/test; under [dune exec]
   from the repo root it is the root. *)
let exe rel =
  let built = Filename.concat ".." rel in
  if Sys.file_exists built then built
  else Filename.concat (Filename.concat "_build" "default") rel

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Exit code and stderr of [exe args], stdout discarded. *)
let run exe args =
  let err = Filename.temp_file "ufork_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s > %s 2> %s < %s" (Filename.quote exe)
             (String.concat " " (List.map Filename.quote args))
             Filename.null (Filename.quote err) Filename.null)
      in
      (code, read_file err))

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_rejected ~front ~want_code ~flag exe args =
  let code, err = run exe args in
  let what = String.concat " " (front :: args) in
  Alcotest.(check int) (what ^ ": exit code") want_code code;
  Alcotest.(check int)
    (what ^ ": one stderr line") 1
    (List.length (String.split_on_char '\n' (String.trim err)));
  Alcotest.(check bool)
    (what ^ ": names " ^ flag) true
    (contains ~needle:flag err)

let test_bad_cores () =
  let sim = exe (Filename.concat "bin" "ufork_sim.exe")
  and bench = exe (Filename.concat "bench" "main.exe") in
  List.iter
    (fun n ->
      let n = string_of_int n in
      check_rejected ~front:"ufork_sim" ~want_code:1 ~flag:"--cores" sim
        [ "run"; "hello"; "--cores=" ^ n ];
      check_rejected ~front:"bench" ~want_code:2 ~flag:"--cores" bench
        [ "fig8"; "--quick"; "--cores=" ^ n ])
    [ 0; -1; 1025 ]

(* The smp gate fails a point whose forks/s dropped by more than the
   allowed percentage, so a negative one fails even an unchanged curve
   (and NaN passes every curve). *)
let test_bad_max_regress () =
  let bench = exe (Filename.concat "bench" "main.exe") in
  List.iter
    (fun pct ->
      check_rejected ~front:"bench" ~want_code:2 ~flag:"--max-regress-pct"
        bench
        [ "fig8"; "--quick"; "--max-regress-pct=" ^ pct ])
    [ "-1"; "-0.5"; "nan" ]

(* A baseline that matches no sweep point gates nothing, so bench
   refuses it like an unreadable one: exit 2, naming the file. *)
let test_unmatched_smp_baseline () =
  let bench = exe (Filename.concat "bench" "main.exe") in
  let baseline = Filename.temp_file "ufork_smp_baseline" ".json"
  and out = Filename.temp_file "ufork_smp" ".json" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ baseline; out ])
    (fun () ->
      Out_channel.with_open_bin baseline (fun oc ->
          output_string oc "{}\n");
      let code, err =
        run bench
          [
            "smp"; "--quick"; "--cores-sweep"; "1"; "--smp-out"; out;
            "--smp-baseline"; baseline;
          ]
      in
      Alcotest.(check int) "exit code" 2 code;
      Alcotest.(check bool) "names the baseline" true
        (contains ~needle:baseline err))

let suite =
  [
    Alcotest.test_case "bad --cores is a usage error" `Quick test_bad_cores;
    Alcotest.test_case "bad --max-regress-pct is a usage error" `Quick
      test_bad_max_regress;
    Alcotest.test_case "unmatched --smp-baseline is an error" `Quick
      test_unmatched_smp_baseline;
  ]
