(* Integration tests: cross-system application equivalence and the
   paper-shape assertions (who wins, by roughly what factor). These are
   the automated counterpart of EXPERIMENTS.md. *)

module Strategy = Ufork_core.Strategy
module E = Ufork_workload.Experiments
module Keyspace = Ufork_workload.Keyspace

(* Small-but-representative problem sizes keep the suite quick. *)
let entries = 20
let value_len = 50 * 1024
let db_label = "1 MB-ish"

let redis sys = E.redis_run sys ~entries ~value_len ~db_label

let test_dump_identical_across_systems () =
  (* Transparency (R2): the same unmodified application produces the same
     output on μFork (all strategies), CheriBSD and Nephele. *)
  let systems =
    [
      E.Ufork Strategy.Copa;
      E.Ufork Strategy.Coa;
      E.Ufork Strategy.Full_copy;
      E.Ufork_toctou Strategy.Copa;
      E.Cheribsd;
      E.Nephele;
      E.Linux_ref;
    ]
  in
  List.iter
    (fun sys ->
      let r = redis sys in
      Alcotest.(check bool)
        (Printf.sprintf "dump verified on %s" (E.system_label sys))
        true r.E.dump_ok)
    systems

let test_fork_latency_ordering () =
  let u = E.hello_run (E.Ufork Strategy.Copa) in
  let b = E.hello_run E.Cheribsd in
  let n = E.hello_run E.Nephele in
  Alcotest.(check bool) "uFork < CheriBSD < Nephele" true
    (u.E.fork_latency_us < b.E.fork_latency_us
    && b.E.fork_latency_us < n.E.fork_latency_us);
  (* Paper: 54 us vs 197 us vs 10.7 ms — hold each within 25%. *)
  let within pct x target = Float.abs (x -. target) <= pct *. target in
  Alcotest.(check bool) "uFork ~54us" true (within 0.25 u.E.fork_latency_us 54.);
  Alcotest.(check bool) "CheriBSD ~197us" true
    (within 0.25 b.E.fork_latency_us 197.);
  Alcotest.(check bool) "Nephele ~10.7ms" true
    (within 0.25 n.E.fork_latency_us 10_700.)

let test_fork_memory_ordering () =
  let u = E.hello_run (E.Ufork Strategy.Copa) in
  let b = E.hello_run E.Cheribsd in
  let n = E.hello_run E.Nephele in
  Alcotest.(check bool) "uFork < CheriBSD < Nephele memory" true
    (u.E.child_memory_mb < b.E.child_memory_mb
    && b.E.child_memory_mb < n.E.child_memory_mb)

let test_strategy_memory_ordering () =
  (* Fig. 5 shape: CoPA << CoA < full copy; CheriBSD sits between CoPA and
     CoA thanks to its allocator behaviour. *)
  let copa = redis (E.Ufork Strategy.Copa) in
  let coa = redis (E.Ufork Strategy.Coa) in
  let full = redis (E.Ufork Strategy.Full_copy) in
  let bsd = redis E.Cheribsd in
  Alcotest.(check bool) "CoPA << CoA" true
    (copa.E.child_mb *. 3. < coa.E.child_mb);
  Alcotest.(check bool) "CoA < full" true (coa.E.child_mb < full.E.child_mb);
  Alcotest.(check bool) "CoPA < CheriBSD < full" true
    (copa.E.child_mb < bsd.E.child_mb && bsd.E.child_mb < full.E.child_mb)

let test_strategy_latency_ordering () =
  let copa = redis (E.Ufork Strategy.Copa) in
  let coa = redis (E.Ufork Strategy.Coa) in
  let full = redis (E.Ufork Strategy.Full_copy) in
  Alcotest.(check bool) "CoPA <= CoA" true (copa.E.fork_us <= coa.E.fork_us);
  Alcotest.(check bool) "CoA << full" true
    (coa.E.fork_us *. 2. < full.E.fork_us)

let test_redis_save_ufork_wins () =
  let u = redis (E.Ufork Strategy.Copa) in
  let b = redis E.Cheribsd in
  Alcotest.(check bool) "uFork saves faster" true (u.E.save_ms < b.E.save_ms);
  Alcotest.(check bool) "by a plausible factor (1.1-2.5x)" true
    (let r = b.E.save_ms /. u.E.save_ms in
     r > 1.1 && r < 2.5)

let test_redis_fork_factor () =
  (* Fig. 4: "consistently faster ... by a factor of 5-10x" (we accept
     4-11 at this reduced size). *)
  let u = redis (E.Ufork Strategy.Copa) in
  let b = redis E.Cheribsd in
  let f = b.E.fork_us /. u.E.fork_us in
  Alcotest.(check bool) (Printf.sprintf "factor %.1f in [3,11]" f) true
    (f > 3. && f < 11.)

let test_faas_advantage () =
  (* Fig. 6: ~24% at 3 worker cores. Accept 15-40%. *)
  let u = E.faas_run (E.Ufork Strategy.Copa) ~worker_cores:3 ~window_s:0.2 () in
  let b = E.faas_run E.Cheribsd ~worker_cores:3 ~window_s:0.2 () in
  let adv = (u.E.throughput_per_s /. b.E.throughput_per_s -. 1.) *. 100. in
  Alcotest.(check bool)
    (Printf.sprintf "advantage %.1f%% in [15,40]" adv)
    true
    (adv > 15. && adv < 40.)

let test_faas_scales_with_cores () =
  let t1 = E.faas_run (E.Ufork Strategy.Copa) ~worker_cores:1 ~window_s:0.2 () in
  let t3 = E.faas_run (E.Ufork Strategy.Copa) ~worker_cores:3 ~window_s:0.2 () in
  Alcotest.(check bool) "3 cores ~3x of 1" true
    (t3.E.throughput_per_s > 2.5 *. t1.E.throughput_per_s)

let test_nginx_worker_scaling () =
  (* Fig. 7: +15.6% from 1 to 3 workers on a single core (accept 8-30%),
     and more workers never hurt. *)
  let w1 = E.nginx_run (E.Ufork Strategy.Copa) ~cores:1 ~workers:1 ~window_s:0.2 () in
  let w3 = E.nginx_run (E.Ufork Strategy.Copa) ~cores:1 ~workers:3 ~window_s:0.2 () in
  let gain = (w3.E.requests_per_s /. w1.E.requests_per_s -. 1.) *. 100. in
  Alcotest.(check bool)
    (Printf.sprintf "gain %.1f%% in [8,30]" gain)
    true
    (gain > 8. && gain < 30.)

let test_nginx_vs_cheribsd () =
  let u = E.nginx_run (E.Ufork Strategy.Copa) ~cores:1 ~workers:3 ~window_s:0.2 () in
  let b1 = E.nginx_run E.Cheribsd ~cores:1 ~workers:3 ~window_s:0.2 () in
  let b3 = E.nginx_run E.Cheribsd ~cores:3 ~workers:3 ~window_s:0.2 () in
  Alcotest.(check bool) "uFork beats single-core CheriBSD" true
    (u.E.requests_per_s > b1.E.requests_per_s);
  Alcotest.(check bool) "multicore CheriBSD beats single-core uFork" true
    (b3.E.requests_per_s > u.E.requests_per_s)

let test_fig9_shape () =
  let rows = E.fig9 ~spawn_iters:200 ~context1_iters:5000 () in
  match rows with
  | [ u; b ] ->
      Alcotest.(check bool) "spawn: uFork 2.5-5x faster" true
        (let r = b.E.spawn_ms /. u.E.spawn_ms in
         r > 2.5 && r < 5.);
      Alcotest.(check bool) "context1: uFork 1.4-2.2x faster" true
        (let r = b.E.context1_ms /. u.E.context1_ms in
         r > 1.4 && r < 2.2)
  | _ -> Alcotest.fail "expected two systems"

let test_toctou_fork_cost_small () =
  let base = redis (E.Ufork Strategy.Copa) in
  let prot = redis (E.Ufork_toctou Strategy.Copa) in
  let pct = (prot.E.fork_us /. base.E.fork_us -. 1.) *. 100. in
  Alcotest.(check bool)
    (Printf.sprintf "TOCTTOU fork cost %.1f%% < 6%%" pct)
    true (pct >= 0. && pct < 6.)

let test_ablate_isolation_monotone () =
  match E.ablate_isolation () with
  | [ none; fault; full; toctou ] ->
      Alcotest.(check bool) "isolation levels cost monotonically" true
        (none.E.value <= fault.E.value +. 0.5
        && fault.E.value <= full.E.value +. 0.5
        && full.E.value <= toctou.E.value +. 0.5)
  | _ -> Alcotest.fail "expected four rows"

let test_ablate_syscall_entry () =
  match E.ablate_syscall_entry () with
  | [ sealed; trap ] ->
      Alcotest.(check bool) "trap entry slower" true
        (trap.E.value > sealed.E.value *. 1.2)
  | _ -> Alcotest.fail "expected two rows"

let test_fragmentation_shapes () =
  match E.ablate_fragmentation ~churn:20 () with
  | [ uniform; mixed_ff; mixed_bf ] ->
      (* Uniform churn recycles its areas: high-water stays close to one
         driver + one child. Mixed sizes leave first-fit holes, which
         best fit largely avoids. *)
      Alcotest.(check bool) "uniform arena bounded (driver + child)" true
        (uniform.E.arena_mb < uniform.E.live_mb *. 2.5);
      Alcotest.(check bool) "mixed sizes fragment more" true
        (mixed_ff.E.arena_mb > uniform.E.arena_mb);
      Alcotest.(check bool) "best fit mitigates" true
        (mixed_bf.E.arena_mb < mixed_ff.E.arena_mb)
  | _ -> Alcotest.fail "expected three scenarios"

(* Each CLI label must boot the machine it names: the TOCTTOU flavour
   pays for revalidation and Linux runs its own costs, so neither may
   report the numbers of the flavour it was once mislabelled as.
   [faas_run] ends in the audit and sanitizer, so returning at all means
   every run passed them. *)
let test_flavours_boot_their_label () =
  let module Mpy = Ufork_apps.Mpy in
  let matmul sys =
    let r =
      E.faas_run sys ~worker_cores:3 ~window_s:0.05
        ~program:(Mpy.matmul ~n:10) ~locals:(Mpy.matmul_locals ~n:10) ()
    in
    (r.E.throughput_per_s, r.E.completed)
  in
  let copa = matmul (E.Ufork Strategy.Copa)
  and toctou = matmul (E.Ufork_toctou Strategy.Copa)
  and bsd = matmul E.Cheribsd
  and linux = matmul E.Linux_ref in
  Alcotest.(check bool) "uFork+TOCTTOU differs from uFork/CoPA" true
    (toctou <> copa);
  Alcotest.(check bool) "Linux differs from CheriBSD" true (linux <> bsd)

(* --- Event-bus accounting audit (zero tolerance) --- *)

module Os = Ufork_core.Os
module Mono = Ufork_baselines.Monolithic
module Vm = Ufork_baselines.Vmclone
module Kernel = Ufork_sas.Kernel
module Engine = Ufork_sim.Engine
module Trace = Ufork_sim.Trace
module Image = Ufork_sas.Image
module Hello = Ufork_apps.Hello
module Unixbench = Ufork_apps.Unixbench

let audit_kernel name k e =
  match
    Trace.audit (Kernel.trace k) ~costs:(Kernel.costs k)
      ~elapsed:(Engine.advanced e)
  with
  | () -> ()
  | exception Trace.Audit_failure msg -> Alcotest.failf "%s: %s" name msg

(* Boot each of the three systems, run [main] to completion, and check
   that every cycle the engine advanced was charged through the event bus
   (and that each fixed-cost counter re-derives from the preset). *)
let audit_all_systems label main =
  let os = Os.boot () in
  ignore (Os.start os ~image:Image.hello main);
  Os.run os;
  audit_kernel (label ^ " on uFork/CoPA") (Os.kernel os) (Os.engine os);
  let b = Mono.boot () in
  ignore (Mono.start b ~image:Image.hello main);
  Mono.run b;
  audit_kernel (label ^ " on CheriBSD") (Mono.kernel b) (Mono.engine b);
  let v = Vm.boot () in
  ignore (Vm.start v ~image:Image.hello main);
  Vm.run v;
  audit_kernel (label ^ " on Nephele") (Vm.kernel v) (Vm.engine v)

let test_trace_audit_hello () =
  (* Fig. 8 workload: one fork + reap. *)
  audit_all_systems "hello fork" (fun api ->
      ignore (Hello.fork_once api);
      Hello.reap api)

let test_trace_audit_unixbench () =
  (* Fig. 9 workloads at reduced size: Spawn and Context1. *)
  audit_all_systems "unixbench spawn" (fun api ->
      ignore (Unixbench.spawn api ~iterations:50));
  audit_all_systems "unixbench context1" (fun api ->
      ignore (Unixbench.context1 api ~iterations:500))

let test_trace_determinism () =
  (* Two identical hello-fork runs produce byte-identical JSONL traces. *)
  let run () =
    let os = Os.boot () in
    let tr = Os.trace os in
    Trace.set_recording tr true;
    ignore
      (Os.start os ~image:Image.hello (fun api ->
           ignore (Hello.fork_once api);
           Hello.reap api));
    Os.run os;
    Trace.to_jsonl_string tr
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "trace non-empty" true (String.length a > 0);
  Alcotest.(check bool) "byte-identical JSONL" true (String.equal a b)

let test_keyspace_deterministic () =
  let a = Keyspace.value ~seed:1L ~index:3 ~len:100 in
  let b = Keyspace.value ~seed:1L ~index:3 ~len:100 in
  let c = Keyspace.value ~seed:2L ~index:3 ~len:100 in
  Alcotest.(check bytes) "same" a b;
  Alcotest.(check bool) "seed matters" true (a <> c)

let suite =
  [
    ("dumps identical across systems", `Slow, test_dump_identical_across_systems);
    ("fork latency ordering (fig8)", `Quick, test_fork_latency_ordering);
    ("fork memory ordering (fig8)", `Quick, test_fork_memory_ordering);
    ("strategy memory ordering (fig5)", `Slow, test_strategy_memory_ordering);
    ("strategy latency ordering (fig4)", `Slow, test_strategy_latency_ordering);
    ("redis save uFork wins (fig3)", `Slow, test_redis_save_ufork_wins);
    ("redis fork factor (fig4)", `Slow, test_redis_fork_factor);
    ("faas advantage (fig6)", `Slow, test_faas_advantage);
    ("faas core scaling (fig6)", `Slow, test_faas_scales_with_cores);
    ("nginx worker scaling (fig7)", `Slow, test_nginx_worker_scaling);
    ("nginx vs cheribsd (fig7)", `Slow, test_nginx_vs_cheribsd);
    ("unixbench shape (fig9)", `Slow, test_fig9_shape);
    ("toctou fork cost", `Slow, test_toctou_fork_cost_small);
    ("isolation ablation monotone", `Slow, test_ablate_isolation_monotone);
    ("syscall entry ablation", `Quick, test_ablate_syscall_entry);
    ("fragmentation shapes", `Quick, test_fragmentation_shapes);
    ("flavours boot their label (faas matmul)", `Quick,
      test_flavours_boot_their_label);
    ("keyspace deterministic", `Quick, test_keyspace_deterministic);
    ("trace audit: hello fork (fig8)", `Quick, test_trace_audit_hello);
    ("trace audit: unixbench (fig9)", `Slow, test_trace_audit_unixbench);
    ("trace determinism", `Quick, test_trace_determinism);
  ]
