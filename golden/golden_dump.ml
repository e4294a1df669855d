(* Print every golden scenario's dump; golden_seed.txt is this output.
   `dune runtest` diffs the two. After an intentional accounting change,
   `dune promote` rewrites the recording; say why in the commit. *)
let () =
  List.iter
    (fun (_, dump) -> List.iter print_endline (dump ()))
    Golden_scenarios.all
