(** Just enough JSON output for the benchmark's records. Floats print
    with 17 significant digits, so a value survives the round trip
    through the runner bit for bit; non-finite floats print as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
