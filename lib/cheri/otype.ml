type t = int

let unsealed = -1
let syscall_entry = 1

(* Process-global so otypes are unique across every machine in the
   process; atomic because the bench harness boots machines from several
   domains at once. Only uniqueness matters — no simulated behaviour or
   export depends on the numeric value. *)
let counter = Atomic.make 1
[@@ufork.global_ok "otypes must be unique across every machine in the process"]
let fresh () = 1 + Atomic.fetch_and_add counter 1

let equal (a : t) b = a = b
let is_sealed t = t <> unsealed

let pp ppf t =
  if t = unsealed then Format.pp_print_string ppf "unsealed"
  else if t = syscall_entry then Format.pp_print_string ppf "syscall-entry"
  else Format.fprintf ppf "otype:%d" t

let to_int t = t
