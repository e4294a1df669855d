(** The layers host time is charged to: one per dune library under
    [lib/], plus [Bench] for the benchmark's own glue code (the loops
    that compose layer calls into a workload). *)

type t =
  | Bench
  | Util
  | Cheri
  | Mem
  | Sim
  | Sas
  | Core
  | Baselines
  | Apps
  | Workload
  | Analysis

val all : t list
(** In {!index} order. *)

val count : int
val index : t -> int
(** Dense code [0 .. count - 1]. *)

val name : t -> string
(** The library's short name (["sas"], ["apps"], ...; ["bench"]). *)
