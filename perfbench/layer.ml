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

let all =
  [ Bench; Util; Cheri; Mem; Sim; Sas; Core; Baselines; Apps; Workload;
    Analysis ]

let count = List.length all

let index = function
  | Bench -> 0
  | Util -> 1
  | Cheri -> 2
  | Mem -> 3
  | Sim -> 4
  | Sas -> 5
  | Core -> 6
  | Baselines -> 7
  | Apps -> 8
  | Workload -> 9
  | Analysis -> 10

let name = function
  | Bench -> "bench"
  | Util -> "util"
  | Cheri -> "cheri"
  | Mem -> "mem"
  | Sim -> "sim"
  | Sas -> "sas"
  | Core -> "core"
  | Baselines -> "baselines"
  | Apps -> "apps"
  | Workload -> "workload"
  | Analysis -> "analysis"
