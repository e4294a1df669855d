(* False-positive control for D14: mutable state created per call or per
   machine is fine, and so is a process-wide value discharged with a
   reason. A module-level ref in a comment (let x = ref 0) must not fire
   either. *)

type machine = { ids : (int, string) Hashtbl.t; mutable next : int }

let create () = { ids = Hashtbl.create 16; next = 0 }

let count xs =
  let n = ref 0 in
  List.iter (fun _ -> incr n) xs;
  !n

module Nested = struct
  let fresh m =
    m.next <- m.next + 1;
    m.next
end

let uniques = Atomic.make 0
[@@ufork.global_ok "ids must be unique across every machine in the process"]
