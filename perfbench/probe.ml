type t = { noalloc_ms : float; alloc_ms : float }

let time_ms f =
  let t0 = Monotonic_clock.now () in
  f ();
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6

let median = Ufork_util.Stats.percentile 50.

(* Integer LCG: registers only. *)
let noalloc () =
  let x = ref 1 in
  for _ = 1 to 20_000_000 do
    x := (!x * 1103515245) + 12345
  done;
  ignore (Sys.opaque_identity !x)

(* Short-lived boxed floats and cons cells: the minor heap's fast path. *)
let alloc () =
  let acc = ref 0. in
  for _ = 1 to 100 do
    let l = List.init 10_000 (fun i -> Sys.opaque_identity (float_of_int i)) in
    acc := !acc +. List.fold_left ( +. ) 0. l
  done;
  ignore (Sys.opaque_identity !acc)

let measure () =
  let run f = median (List.init 5 (fun _ -> time_ms f)) in
  let noalloc_ms = run noalloc in
  let alloc_ms = run alloc in
  { noalloc_ms; alloc_ms }
