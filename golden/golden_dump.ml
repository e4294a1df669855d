(* Print every golden scenario's dump; golden_seed.txt is this output.
   Regenerate the recording only for an intentional accounting change. *)
let () =
  List.iter
    (fun (_, dump) -> List.iter print_endline (dump ()))
    Golden_scenarios.all
