module Sync = Ufork_sim.Sync

(* Nearest rank, as Ufork_util.Stats.percentile. *)
let quantile p xs =
  match xs with
  | [] -> nan
  | _ -> Ufork_util.Stats.percentile p (List.map Int64.to_float xs)

let ratio a b = if b = 0. then 0. else a /. b

(* {1 Per-layer simulated counters, read on the CoPA machine} *)

let fork_steps =
  [ "fixed"; "fd_dup"; "uproc_create"; "duplicate"; "alloc_clone";
    "post_copy"; "spawn" ]

let sim_layer (r : Workloads.result) =
  let s = List.hd r.Workloads.stats in
  let c = Machine.counter s in
  let f = float_of_int in
  let copies = c "page_copy_eager" + c "page_copy_child" + c "page_copy_cow" in
  let claims = c "claim_in_place" + c "cow_claim_in_place" in
  let locks = s.Machine.locks in
  let lsum g = List.fold_left (fun acc l -> acc + g l) 0 locks in
  let acquires = lsum (fun l -> l.Sync.acquires) in
  let waits = lsum (fun l -> l.Sync.waits) in
  let uproc =
    List.find_opt (fun l -> l.Sync.lock = "lock.uproc_table") locks
  in
  let syscall_cycles =
    List.fold_left
      (fun acc (name, _, cyc) ->
        if String.starts_with ~prefix:"syscall." name then
          Int64.add acc cyc
        else acc)
      0L s.Machine.spans
  in
  let mean_span name =
    ratio
      (Int64.to_float (Machine.span_cycles s name))
      (f (Machine.span_count s name))
  in
  [
    ("mem.page_copies", f copies);
    ("mem.claims_in_place", f claims);
    ("mem.copy_avoid_ratio", ratio (f claims) (f (claims + copies)));
    ("mem.pte_copies", f (c Ufork_sim.Event.pte_copy_key));
    ("mem.page_allocs", f (c "page_alloc"));
    ("mem.peak_frames", f s.Machine.peak_frames);
  ]
  @ List.map
      (fun step ->
        (Printf.sprintf "core.fork.%s_cycles" step, mean_span ("fork." ^ step)))
      fork_steps
  @ [
      ("core.forks", f (c "fork"));
      ("core.reloc_scan_cycles", Int64.to_float (Machine.span_cycles s "reloc.scan"));
      ("core.granules_scanned", f (c "granules_scanned"));
      ("core.caps_relocated", f (c "caps_relocated"));
      ("core.reloc_yield", ratio (f (c "caps_relocated")) (f (c "granules_scanned")));
      ("core.copa_faults", f (c "copa_write_fault" + c "copa_cap_load_fault"));
      ("sim.events", f s.Machine.emits);
      ("sim.charged_cycles", Int64.to_float s.Machine.charged);
      ( "sim.core_utilization",
        ratio (Int64.to_float s.Machine.charged)
          (Int64.to_float s.Machine.now *. f s.Machine.cores) );
      ("sim.steals", f s.Machine.steals);
      ("sim.lock_acquires", f acquires);
      ("sim.lock_waits", f waits);
      ("sim.lock_wait_ratio", ratio (f waits) (f acquires));
      ( "sim.uproc_table_wait_ratio",
        match uproc with
        | Some l -> ratio (f l.Sync.waits) (f l.Sync.acquires)
        | None -> 0. );
      ("sas.syscalls", f (c "syscall"));
      ("sas.syscall_cycles", Int64.to_float syscall_cycles);
      ("sas.faults", f (c Ufork_sim.Event.fault_key));
      ("sas.fault_service_p50_cycles", Int64.to_float s.Machine.fault_p50);
      ("sas.fault_service_p99_cycles", Int64.to_float s.Machine.fault_p99);
      ("sas.context_switches", f (c "context_switch"));
      ("sas.tlb_shootdowns", f (c "tlb_shootdown"));
      ( "apps.user_compute_cycles",
        Int64.to_float (Machine.span_cycles s "user.compute") );
      ("apps.functions_completed", f r.Workloads.functions_completed);
      ("apps.dump_bytes", f r.Workloads.dump_bytes);
    ]

(* {1 Host-time metrics of a traced run} *)

let host_layer tracer =
  let s ns = float_of_int ns /. 1e9 in
  let mw w = w /. 1e6 in
  List.map
    (fun l ->
      (Printf.sprintf "layer.%s.self_s" (Layer.name l), s (Tracer.self_ns tracer l)))
    Layer.all
  @ [
      ("host.traced_wall_s", s (Tracer.wall_ns tracer));
      ("sas.host_s", s (Tracer.self_ns tracer Layer.Sas));
      ("sas.alloc_mwords", mw (Tracer.self_words tracer Layer.Sas));
      ("apps.host_s", s (Tracer.self_ns tracer Layer.Apps));
      ("apps.alloc_mwords", mw (Tracer.self_words tracer Layer.Apps));
      ("workload.verify_host_s", s (Tracer.total_ns tracer "verify"));
      ("workload.verify_alloc_mwords", mw (Tracer.total_words tracer "verify"));
      ("analysis.audit_host_s", s (Tracer.total_ns tracer "audit"));
      ("analysis.sanitize_host_s", s (Tracer.total_ns tracer "sanitize"));
      ("sim.run_host_s", s (Tracer.total_ns tracer "run"));
    ]

let name_ok name =
  name <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       name
