module Capability = Ufork_cheri.Capability
module Otype = Ufork_cheri.Otype
module Page = Ufork_mem.Page
module Page_table = Ufork_mem.Page_table
module Phys = Ufork_mem.Phys
module Pte = Ufork_mem.Pte
module Relocate = Ufork_core.Relocate
module Os = Ufork_core.Os
module Engine = Ufork_sim.Engine
module Trace = Ufork_sim.Trace
module Event = Ufork_sim.Event
module Costs = Ufork_sim.Costs
module Sync = Ufork_sim.Sync
module Image = Ufork_sas.Image
module Kvstore = Ufork_apps.Kvstore
module Mpy = Ufork_apps.Mpy

type row = {
  name : string;
  layer : Layer.t;
  ns_per_op : float;
  words_per_op : float;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let median = Ufork_util.Stats.percentile 50.

let budget_ms = 60.

(* [batch ()] runs some operations and returns how many, plus the host
   ns they took when the batch times itself (machine set-up excluded),
   or [None] to be timed from outside. One warm-up batch, then at least
   five timed ones and at least [budget_ms]. *)
let rung name layer batch =
  ignore (batch ());
  let deadline = now_ns () + int_of_float (budget_ms *. 1e6) in
  let rec go n per_op ops w =
    if n >= 5 && now_ns () >= deadline then (per_op, ops, w)
    else
      let t0 = now_ns () and w0 = words () in
      let k, inner = batch () in
      let dt = match inner with Some ns -> ns | None -> now_ns () - t0 in
      let dw = words () -. w0 in
      go (n + 1) ((float_of_int dt /. float_of_int k) :: per_op) (ops + k)
        (w +. dw)
  in
  let per_op, ops, w = go 0 [] 0 0. in
  { name; layer; ns_per_op = median per_op; words_per_op = w /. float_of_int ops }

let repeat n f =
  for i = 1 to n do
    ignore (Sys.opaque_identity (f i))
  done;
  (n, None)

(* {1 cheri} *)

let root = Capability.root ()
let small = Capability.set_bounds root ~base:4096 ~length:4096
let sealer = Otype.fresh ()

let cap_rungs () =
  [
    rung "cap_derive" Layer.Cheri (fun () ->
        repeat 10_000 (fun i ->
            Capability.set_bounds root ~base:(i * 16) ~length:64));
    rung "cap_seal" Layer.Cheri (fun () ->
        repeat 10_000 (fun _ -> Capability.seal ~authority:root small sealer));
    rung "cap_equal" Layer.Cheri (fun () ->
        let other = Capability.set_bounds root ~base:4096 ~length:4096 in
        repeat 10_000 (fun _ -> Capability.equal small other));
  ]

(* {1 mem and core} *)

let area_bytes = 1 lsl 20
let area_a = 1 lsl 30
let area_b = area_a + area_bytes

let owner_area addr =
  if addr >= area_a && addr < area_a + area_bytes then Some (area_a, area_bytes)
  else if addr >= area_b && addr < area_b + area_bytes then
    Some (area_b, area_bytes)
  else None

(* A page holding a capability in each of its 256 granules, all into
   area A; relocating it alternately into B and back rebases every one. *)
let dense_page () =
  let p = Page.create () in
  let area = Capability.set_bounds root ~base:area_a ~length:area_bytes in
  for g = 0 to 255 do
    Page.store_cap p ~off:(g * 16)
      (Capability.with_cursor area (area_a + (g * 64)))
  done;
  p

let mem_rungs () =
  let src = Page.create () in
  Page.write_u64 src ~off:0 42L;
  let zero = Page.create () in
  let dense = dense_page () in
  let into_b = ref true in
  let phys = Phys.create () in
  let n = 512 in
  let frames = Array.init n (fun _ -> Phys.alloc phys) in
  let pt = Page_table.create phys in
  let mapped = Page_table.create phys in
  Array.iteri
    (fun v fr ->
      Phys.retain phys fr;
      Page_table.map mapped ~vpn:v (Pte.make fr))
    frames;
  [
    rung "page_copy" Layer.Mem (fun () ->
        repeat 1_000 (fun _ -> Page.copy src));
    rung "reloc_zero_page" Layer.Core (fun () ->
        repeat 1_000 (fun _ ->
            Relocate.relocate_page ~owner_area ~child_base:area_b
              ~child_bytes:area_bytes zero));
    rung "reloc_dense_page" Layer.Core (fun () ->
        repeat 100 (fun _ ->
            let child_base = if !into_b then area_b else area_a in
            into_b := not !into_b;
            Relocate.relocate_page ~owner_area ~child_base
              ~child_bytes:area_bytes dense));
    rung "pt_map_range" Layer.Mem (fun () ->
        let installed =
          Page_table.map_range pt ~vpn:0 ~count:n (fun v ->
              let fr = frames.(v) in
              Phys.retain phys fr;
              Some (Pte.make fr))
        in
        Page_table.unmap_range pt ~vpn:0 ~count:n;
        (installed, None));
    rung "pt_fold_range" Layer.Mem (fun () ->
        let k =
          Page_table.fold_range mapped ~vpn:0 ~count:n ~init:0
            ~f:(fun _ _ acc -> acc + 1)
        in
        (k, None));
  ]

(* {1 sim} *)

(* Run [body] as the only thread of a fresh one-core machine and time
   it from inside, so engine creation is not part of the cost. *)
let in_engine n body =
  let e = Engine.create ~cores:1 () in
  let ns = ref 0 in
  ignore
    (Engine.spawn e (fun () ->
         let t0 = now_ns () in
         body e;
         ns := now_ns () - t0));
  Engine.run e;
  (n, Some !ns)

let sim_rungs () =
  [
    rung "trace_emit" Layer.Sim (fun () ->
        let n = 100_000 in
        in_engine n (fun e ->
            let tr = Trace.create ~engine:e ~costs:Costs.ufork () in
            for _ = 1 to n do
              Trace.emit tr Event.Malloc
            done));
    rung "lock_uncontended" Layer.Sim (fun () ->
        let n = 100_000 in
        let l = Sync.Lock.create () in
        in_engine n (fun _ ->
            for _ = 1 to n do
              Sync.Lock.with_lock l ignore
            done));
    rung "engine_spawn_switch" Layer.Sim (fun () ->
        let n = 64 in
        let e = Engine.create ~cores:1 () in
        for _ = 1 to n do
          ignore (Engine.spawn e Engine.yield)
        done;
        let t0 = now_ns () in
        Engine.run e;
        (n, Some (now_ns () - t0)));
  ]

(* {1 apps} *)

(* One process on a fresh one-core μFork machine; [body] sets up, then
   returns the host ns of the part it timed. *)
let in_process ~image n body =
  let os = Os.boot ~cores:1 () in
  let ns = ref 0 in
  ignore (Os.start os ~image (fun api -> ns := body api));
  Os.run os;
  (n, Some !ns)

let timed f =
  let t0 = now_ns () in
  f ();
  now_ns () - t0

let value_len = 100 * 1024

let app_rungs () =
  let program = Mpy.float_operation ~n:3650 in
  let instrs =
    Int64.to_int (Int64.div (Mpy.estimated_cycles program) Mpy.cycles_per_instr)
  in
  let value = Bytes.make value_len 'v' in
  let n_sets = 32 in
  let image =
    Image.redis ~heap_bytes:(max (4 * 1024 * 1024) (n_sets * value_len * 2))
  in
  [
    rung "kvstore_set" Layer.Apps (fun () ->
        in_process ~image n_sets (fun api ->
            let store = Kvstore.create api ~buckets:1024 () in
            timed (fun () ->
                for i = 1 to n_sets do
                  Kvstore.set store ~key:(Printf.sprintf "key:%08d" i) ~value
                done)));
    rung "mpy_instr" Layer.Apps (fun () ->
        let runs = 4 in
        in_process ~image:Image.micropython (runs * instrs) (fun api ->
            timed (fun () ->
                for _ = 1 to runs do
                  ignore (Mpy.run api program)
                done)));
  ]

let measure () = cap_rungs () @ mem_rungs () @ sim_rungs () @ app_rungs ()

(* Each rung's cost times the count of its operation, summed over every
   machine of the run. *)
let predict rows (r : Workloads.result) =
  let cost name =
    match List.find_opt (fun row -> row.name = name) rows with
    | Some row -> row.ns_per_op
    | None -> invalid_arg ("Ladder.predict: no rung " ^ name)
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 r.Workloads.stats in
  let c key s = Machine.counter s key in
  let page_copies =
    sum (fun s -> c "page_copy_eager" s + c "page_copy_child" s + c "page_copy_cow" s)
  in
  let pte_copies = sum (c Event.pte_copy_key) in
  let lock_acquires =
    sum (fun s ->
        List.fold_left
          (fun acc (l : Sync.contention) -> acc + l.Sync.acquires)
          0 s.Machine.locks)
  in
  let switches = sum (fun s -> c "context_switch" s + c "thread_create" s) in
  let ns n name = float_of_int n *. cost name in
  let per_cap = (cost "reloc_dense_page" -. cost "reloc_zero_page") /. 256. in
  let seconds ns = ns /. 1e9 in
  [
    ( Layer.Mem,
      seconds
        (ns page_copies "page_copy" +. ns pte_copies "pt_map_range"
       +. ns pte_copies "pt_fold_range") );
    ( Layer.Core,
      seconds
        (ns (sum (c "granules_scanned") / 256) "reloc_zero_page"
        +. (float_of_int (sum (c "caps_relocated")) *. per_cap)) );
    ( Layer.Sim,
      seconds
        (ns (sum (fun s -> s.Machine.emits)) "trace_emit"
        +. ns lock_acquires "lock_uncontended"
        +. ns switches "engine_spawn_switch") );
    ( Layer.Apps,
      seconds
        (ns r.Workloads.kv_sets "kvstore_set"
        +. ns r.Workloads.mpy_instructions "mpy_instr") );
  ]

let residual_pct ~predicted_s ~measured_s =
  100. *. (measured_s -. predicted_s) /. measured_s
