(* Tests for the discrete-event engine, synchronization and meters. *)

module Engine = Ufork_sim.Engine
module Sync = Ufork_sim.Sync
module Meter = Ufork_sim.Meter
module Costs = Ufork_sim.Costs
module Event = Ufork_sim.Event
module Trace = Ufork_sim.Trace

(* --- Engine basics --- *)

let test_single_thread_time () =
  let e = Engine.create ~cores:1 () in
  let finish = ref (-1L) in
  let _ =
    Engine.spawn e (fun () ->
        Engine.advance 100L;
        Engine.advance 50L;
        finish := Engine.current_time ())
  in
  Engine.run e;
  Alcotest.(check int64) "time accumulates" 150L !finish;
  Alcotest.(check int64) "engine time" 150L (Engine.now e);
  Alcotest.(check int) "no live" 0 (Engine.live_threads e)

let test_two_cores_parallel () =
  let e = Engine.create ~cores:2 () in
  let t1 = ref 0L and t2 = ref 0L in
  let _ = Engine.spawn e (fun () -> Engine.advance 100L; t1 := Engine.current_time ()) in
  let _ = Engine.spawn e (fun () -> Engine.advance 100L; t2 := Engine.current_time ()) in
  Engine.run e;
  Alcotest.(check int64) "parallel t1" 100L !t1;
  Alcotest.(check int64) "parallel t2" 100L !t2;
  Alcotest.(check int64) "wall = 100" 100L (Engine.now e)

let test_one_core_serializes () =
  let e = Engine.create ~cores:1 () in
  let t2 = ref 0L in
  let _ = Engine.spawn e (fun () -> Engine.advance 100L) in
  let _ = Engine.spawn e (fun () -> Engine.advance 100L; t2 := Engine.current_time ()) in
  Engine.run e;
  Alcotest.(check int64) "second waits for core" 200L !t2

let test_affinity () =
  let e = Engine.create ~cores:2 () in
  let t2 = ref 0L and core2 = ref (-1) in
  let _ = Engine.spawn ~affinity:1 e (fun () -> Engine.advance 100L) in
  let _ =
    Engine.spawn ~affinity:1 e (fun () ->
        Engine.advance 10L;
        core2 := Engine.running_core e;
        t2 := Engine.current_time ())
  in
  Engine.run e;
  Alcotest.(check int64) "pinned threads serialize" 110L !t2;
  Alcotest.(check int) "ran on core 1" 1 !core2

let test_yield_migration () =
  (* A yielding thread can resume on a different core and its later
     advances must charge the new core (regression test for the stale-core
     handler bug). *)
  let e = Engine.create ~cores:2 () in
  let log = ref [] in
  let _ =
    Engine.spawn e (fun () ->
        Engine.advance 10L;
        Engine.yield ();
        Engine.advance 10L;
        log := ("a", Engine.current_time ()) :: !log)
  in
  let _ =
    Engine.spawn e (fun () ->
        Engine.advance 100L;
        log := ("b", Engine.current_time ()) :: !log)
  in
  Engine.run e;
  Alcotest.(check int64) "a done at 20" 20L (List.assoc "a" !log);
  Alcotest.(check int64) "b done at 100" 100L (List.assoc "b" !log)

let test_sleep () =
  let e = Engine.create ~cores:1 () in
  let woke = ref 0L and other = ref 0L in
  let _ =
    Engine.spawn e (fun () ->
        Engine.sleep 1000L;
        woke := Engine.current_time ())
  in
  let _ =
    Engine.spawn e (fun () ->
        Engine.advance 200L;
        other := Engine.current_time ())
  in
  Engine.run e;
  Alcotest.(check int64) "sleeper wakes at 1000" 1000L !woke;
  Alcotest.(check int64) "core free during sleep" 200L !other

let test_spawn_from_thread () =
  let e = Engine.create ~cores:2 () in
  let child_done = ref 0L in
  let _ =
    Engine.spawn e (fun () ->
        Engine.advance 10L;
        ignore
          (Engine.spawn e (fun () ->
               Engine.advance 5L;
               child_done := Engine.current_time ())))
  in
  Engine.run e;
  Alcotest.(check int64) "nested spawn runs" 15L !child_done

let test_run_until () =
  let e = Engine.create ~cores:1 () in
  let steps = ref 0 in
  let _ =
    Engine.spawn e (fun () ->
        for _ = 1 to 100 do
          Engine.advance 10L;
          incr steps
        done)
  in
  Engine.run ~until:55L e;
  Alcotest.(check int64) "clock clamped" 55L (Engine.now e);
  Alcotest.(check bool) "stopped early" true (!steps < 100)

let test_blocked_thread_reported () =
  let e = Engine.create ~cores:1 () in
  let c = Sync.Cond.create () in
  let _ = Engine.spawn e (fun () -> Sync.Cond.wait c) in
  Engine.run e;
  Alcotest.(check int) "blocked" 1 (Engine.blocked_threads e);
  Alcotest.(check int) "still live" 1 (Engine.live_threads e)

let test_determinism () =
  let trace () =
    let e = Engine.create ~cores:2 () in
    let log = ref [] in
    for i = 1 to 10 do
      ignore
        (Engine.spawn e (fun () ->
             Engine.advance (Int64.of_int (i * 7));
             Engine.yield ();
             Engine.advance (Int64.of_int (i * 3));
             log := (i, Engine.current_time ()) :: !log))
    done;
    Engine.run e;
    !log
  in
  Alcotest.(check bool) "same schedule twice" true (trace () = trace ())

let test_zero_advance () =
  let e = Engine.create ~cores:1 () in
  let ran = ref false in
  let _ =
    Engine.spawn e (fun () ->
        Engine.advance 0L;
        ran := true)
  in
  Engine.run e;
  Alcotest.(check bool) "zero advance completes" true !ran;
  Alcotest.(check int64) "no time passed" 0L (Engine.now e)

let test_negative_advance_rejected () =
  let e = Engine.create ~cores:1 () in
  let _ =
    Engine.spawn e (fun () ->
        match Engine.advance (-1L) with
        | () -> Alcotest.fail "negative advance accepted"
        | exception Invalid_argument _ -> ())
  in
  Engine.run e

let test_spawn_storm () =
  (* Many short threads across few cores: everyone runs, time is the
     serialized sum over the bottleneck core, and nothing deadlocks. *)
  let e = Engine.create ~cores:3 () in
  let completed = ref 0 in
  for _ = 1 to 500 do
    ignore
      (Engine.spawn e (fun () ->
           Engine.advance 30L;
           incr completed))
  done;
  Engine.run e;
  Alcotest.(check int) "all ran" 500 !completed;
  Alcotest.(check int64) "makespan = ceil(500/3)*30" (Int64.of_int (167 * 30))
    (Engine.now e)

let test_same_time_fifo () =
  (* Threads readied at the same instant run in FIFO order on one core. *)
  let e = Engine.create ~cores:1 () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore (Engine.spawn e (fun () -> order := i :: !order))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_ready_fifo_across_queues () =
  (* Simultaneously-ready threads start in spawn order even though their
     home queues alternate across cores: dispatch follows the global
     ready stamp, not core index. *)
  let e = Engine.create ~cores:2 () in
  let order = ref [] in
  for i = 1 to 4 do
    ignore
      (Engine.spawn e (fun () ->
           order := i :: !order;
           Engine.advance 10L))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "global fifo" [ 1; 2; 3; 4 ] (List.rev !order)

let test_steal_rehomes () =
  (* t1 (home core 1) occupies its core; when core 0 frees up, t3 (also
     homed on core 1) is stolen onto it rather than waiting. *)
  let e = Engine.create ~cores:2 () in
  let t3_core = ref (-1) and t3_time = ref (-1L) in
  let _ = Engine.spawn e (fun () -> Engine.advance 100L) in
  let _ = Engine.spawn e (fun () -> Engine.advance 10L) in
  let _ =
    Engine.spawn e (fun () ->
        t3_core := Engine.running_core e;
        t3_time := Engine.current_time ();
        Engine.advance 10L)
  in
  Engine.run e;
  Alcotest.(check int) "stolen onto core 0" 0 !t3_core;
  Alcotest.(check int64) "ran when core 0 freed" 10L !t3_time;
  Alcotest.(check int) "one steal counted" 1 (Engine.steals e)

let test_pinned_blocked_does_not_shadow () =
  (* A pinned entry waiting for its busy core must not block a younger
     unpinned entry behind it in the same queue: the unpinned one is
     stolen past it. *)
  let e = Engine.create ~cores:2 () in
  let b_time = ref (-1L) and c_time = ref (-1L) and c_core = ref (-1) in
  let _ = Engine.spawn ~affinity:1 e (fun () -> Engine.advance 100L) in
  let _ =
    Engine.spawn ~affinity:1 e (fun () -> b_time := Engine.current_time ())
  in
  let _ =
    Engine.spawn e (fun () ->
        c_time := Engine.current_time ();
        c_core := Engine.running_core e)
  in
  Engine.run e;
  Alcotest.(check int64) "pinned waits for its core" 100L !b_time;
  Alcotest.(check int64) "unpinned runs immediately" 0L !c_time;
  Alcotest.(check int) "on the idle core" 0 !c_core

let test_many_cores_parallel () =
  (* The SMP sweep's upper end: 128 cores run 128 threads fully in
     parallel. *)
  let e = Engine.create ~cores:128 () in
  let completed = ref 0 in
  for _ = 1 to 128 do
    ignore
      (Engine.spawn e (fun () ->
           Engine.advance 100L;
           incr completed))
  done;
  Engine.run e;
  Alcotest.(check int) "all ran" 128 !completed;
  Alcotest.(check int64) "fully parallel" 100L (Engine.now e);
  Alcotest.(check int) "no steals needed" 0 (Engine.steals e)

(* A dispatch step on 512 cores costs a constant number of words — the
   ready entry, the continuation and the effect handler's closure — not
   a walk over every core's queue. Pinned and unpinned threads yield in
   turn, so both the pinned and the unpinned queues are exercised. *)
let test_dispatch_allocation () =
  let rounds = 200 in
  let e = Engine.create ~cores:512 () in
  let yielder () =
    for _ = 1 to rounds do
      Engine.yield ()
    done
  in
  ignore (Engine.spawn ~affinity:7 e yielder);
  ignore (Engine.spawn e yielder);
  ignore (Engine.spawn e yielder);
  let words = Test_mem.allocated_words (fun () -> Engine.run e) in
  let per_yield = words / (3 * rounds) in
  Alcotest.(check bool)
    (Printf.sprintf "%d words per yield round trip <= 40" per_yield)
    true (per_yield <= 40)

let test_waker_pending () =
  let e = Engine.create ~cores:1 () in
  let stash = ref None in
  let _ = Engine.spawn e (fun () -> Engine.suspend (fun w -> stash := Some w)) in
  Engine.run e;
  match !stash with
  | None -> Alcotest.fail "no waker"
  | Some w ->
      Alcotest.(check bool) "pending before" true (Engine.waker_pending w);
      Engine.wake w;
      Engine.run e;
      Alcotest.(check bool) "used after" false (Engine.waker_pending w);
      Alcotest.check_raises "double wake"
        (Invalid_argument "Engine.wake: waker already used") (fun () ->
          Engine.wake w)

(* --- Locks --- *)

let test_lock_mutual_exclusion () =
  let e = Engine.create ~cores:4 () in
  let l = Sync.Lock.create () in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 8 do
    ignore
      (Engine.spawn e (fun () ->
           Sync.Lock.with_lock l (fun () ->
               incr inside;
               max_inside := max !max_inside !inside;
               Engine.advance 10L;
               decr inside)))
  done;
  Engine.run e;
  Alcotest.(check int) "never concurrent" 1 !max_inside;
  Alcotest.(check int64) "fully serialized" 80L (Engine.now e)

let test_lock_fifo () =
  let e = Engine.create ~cores:1 () in
  let l = Sync.Lock.create () in
  let order = ref [] in
  for i = 1 to 4 do
    ignore
      (Engine.spawn e (fun () ->
           Sync.Lock.with_lock l (fun () ->
               order := i :: !order;
               Engine.advance 5L)))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4 ] (List.rev !order)

let test_lock_release_unheld () =
  let l = Sync.Lock.create () in
  Alcotest.check_raises "release unheld"
    (Invalid_argument "Lock.release: not held") (fun () -> Sync.Lock.release l)

let test_lock_released_on_exception () =
  let e = Engine.create ~cores:1 () in
  let l = Sync.Lock.create () in
  let ok = ref false in
  let _ =
    Engine.spawn e (fun () ->
        (try Sync.Lock.with_lock l (fun () -> failwith "boom")
         with Failure _ -> ());
        ok := not (Sync.Lock.locked l))
  in
  Engine.run e;
  Alcotest.(check bool) "released" true !ok

(* --- Cond --- *)

let test_cond_signal_order () =
  let e = Engine.create ~cores:2 () in
  let c = Sync.Cond.create () in
  let woken = ref [] in
  for i = 1 to 3 do
    ignore
      (Engine.spawn e (fun () ->
           Sync.Cond.wait c;
           woken := i :: !woken))
  done;
  let _ =
    Engine.spawn e (fun () ->
        Engine.advance 10L;
        Sync.Cond.signal c;
        Engine.advance 10L;
        Sync.Cond.broadcast c)
  in
  Engine.run e;
  Alcotest.(check int) "all woken" 3 (List.length !woken);
  Alcotest.(check int) "first is 1" 1 (List.nth (List.rev !woken) 0)

let test_cond_signal_empty () =
  let c = Sync.Cond.create () in
  Sync.Cond.signal c;
  Alcotest.(check int) "no waiters" 0 (Sync.Cond.waiters c)

(* --- Meter --- *)

let test_meter () =
  let m = Meter.create () in
  Meter.incr m "a";
  Meter.incr m "a";
  Meter.add m "b" 5;
  Alcotest.(check int) "a" 2 (Meter.get m "a");
  Alcotest.(check int) "b" 5 (Meter.get m "b");
  Alcotest.(check int) "missing" 0 (Meter.get m "zzz");
  Meter.set m "a" 100;
  Alcotest.(check int) "set" 100 (Meter.get m "a");
  Alcotest.(check (list (pair string int))) "sorted" [ ("a", 100); ("b", 5) ]
    (Meter.to_list m);
  Meter.reset m;
  Alcotest.(check int) "reset" 0 (Meter.get m "a");
  (* Reset zeroes values but keeps the key registry: a meter that is
     printed or exported after reset still lists every key it ever saw. *)
  Alcotest.(check (list (pair string int)))
    "registry survives reset"
    [ ("a", 0); ("b", 0) ]
    (Meter.to_list m)

(* --- Costs --- *)

let test_costs_presets () =
  Alcotest.(check bool) "ufork syscall cheaper than cheribsd" true
    (Costs.ufork.Costs.syscall < Costs.cheribsd.Costs.syscall);
  Alcotest.(check int64) "single AS has no AS switch" 0L
    Costs.ufork.Costs.address_space_switch;
  Alcotest.(check bool) "nephele domain create dominates" true
    (Costs.nephele.Costs.domain_create > 10_000_000L);
  Alcotest.(check int64) "bytes cost" 100L (Costs.bytes_cost 1.0 100)

(* --- Event bus (Trace) --- *)

let test_emit_charges_and_counts () =
  let e = Engine.create ~cores:1 () in
  let tr = Trace.create ~engine:e ~costs:Costs.ufork () in
  let _ =
    Engine.spawn e (fun () ->
        Trace.emit tr Event.Context_switch;
        Trace.emit tr ~pid:7 (Event.Pte_copy 1);
        Trace.emit tr (Event.Page_alloc 3))
  in
  Engine.run e;
  let m = Trace.meter tr in
  Alcotest.(check int) "context_switch" 1 (Meter.get m "context_switch");
  Alcotest.(check int) "pte_copy" 1 (Meter.get m "pte_copy");
  Alcotest.(check int) "page_alloc counts pages" 3 (Meter.get m "page_alloc");
  let expected =
    let c = Costs.ufork in
    Int64.add c.Costs.context_switch
      (Int64.add c.Costs.pte_copy (Int64.mul 3L c.Costs.page_alloc))
  in
  Alcotest.(check int64) "charged = engine busy cycles" expected
    (Trace.total_charged tr);
  Alcotest.(check int64) "engine advanced the same" expected
    (Engine.advanced e);
  Trace.audit tr ~costs:Costs.ufork ~elapsed:(Engine.advanced e)

let test_emit_outside_thread_counts_without_charging () =
  (* Boot-time emissions (initial image mapping, unit tests poking at a
     kernel directly) count in the meter but charge nothing. *)
  let e = Engine.create ~cores:1 () in
  let tr = Trace.create ~engine:e ~costs:Costs.ufork () in
  Trace.emit tr (Event.Pte_copy 1);
  Alcotest.(check int) "counted" 1 (Meter.get (Trace.meter tr) "pte_copy");
  Alcotest.(check int64) "not charged" 0L (Trace.total_charged tr);
  Trace.audit tr ~costs:Costs.ufork ~elapsed:(Engine.advanced e)

let test_audit_catches_uncharged_advance () =
  (* A raw Engine.advance that bypasses the bus must trip the audit. *)
  let e = Engine.create ~cores:1 () in
  let tr = Trace.create ~engine:e ~costs:Costs.ufork () in
  let _ =
    Engine.spawn e (fun () ->
        Trace.emit tr Event.Context_switch;
        Engine.advance 123L)
  in
  Engine.run e;
  match Trace.audit tr ~costs:Costs.ufork ~elapsed:(Engine.advanced e) with
  | () -> Alcotest.fail "audit accepted an uncharged advance"
  | exception Trace.Audit_failure _ -> ()

let test_trace_jsonl_record_shape () =
  let e = Engine.create ~cores:1 () in
  let tr = Trace.create ~engine:e ~costs:Costs.ufork () in
  Trace.set_recording tr true;
  let _ =
    Engine.spawn e (fun () ->
        Trace.emit tr ~pid:42 (Event.Syscall { name = "read"; trap = false }))
  in
  Engine.run e;
  match Trace.records tr with
  | [ r ] ->
      Alcotest.(check int) "pid" 42 r.Trace.pid;
      Alcotest.(check int) "core" 0 r.Trace.core;
      let line = Trace.record_to_json r in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      List.iter
        (fun field ->
          Alcotest.(check bool)
            (Printf.sprintf "JSONL has %S" field)
            true (contains line field))
        [ "\"t\":"; "\"core\":"; "\"tid\":"; "\"pid\":"; "\"event\":" ]
  | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs)

let prop_event_key_injective =
  (* No two constructors may share a counter key, or the audit's per-key
     recomputation (and every benchmark reading the meter) would conflate
     mechanisms. [Event.samples] holds one representative of each. *)
  let n = List.length Event.samples in
  QCheck.Test.make ~name:"Event.to_key is injective across constructors"
    ~count:200
    QCheck.(pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    (fun (i, j) ->
      let ei = List.nth Event.samples i and ej = List.nth Event.samples j in
      i = j || Event.to_key ei <> Event.to_key ej)

let prop_trace_ring_bounded_and_monotonic =
  QCheck.Test.make
    ~name:"trace ring stays bounded; per-core timestamps are monotonic"
    ~count:30
    QCheck.(
      triple (int_range 1 4) (int_range 1 32)
        (list_of_size Gen.(1 -- 8) (int_range 1 25)))
    (fun (cores, capacity, thread_events) ->
      let e = Engine.create ~cores () in
      let tr = Trace.create ~engine:e ~costs:Costs.ufork ~ring_capacity:capacity () in
      Trace.set_recording tr true;
      let total = List.fold_left ( + ) 0 thread_events in
      List.iter
        (fun n ->
          ignore
            (Engine.spawn e (fun () ->
                 for _ = 1 to n do
                   Trace.emit tr Event.Context_switch;
                   Engine.yield ()
                 done)))
        thread_events;
      Engine.run e;
      let records = Trace.records tr in
      let kept = List.length records in
      let bounded = kept <= capacity && kept = min total capacity in
      let accounted = kept + Trace.dropped tr = total in
      (* Within one core, records appear in simulated-time order. *)
      let monotonic =
        let last = Hashtbl.create 8 in
        List.for_all
          (fun (r : Trace.record) ->
            let prev =
              Option.value (Hashtbl.find_opt last r.Trace.core) ~default:(-1L)
            in
            Hashtbl.replace last r.Trace.core r.Trace.t;
            r.Trace.t >= prev)
          records
      in
      bounded && accounted && monotonic)

(* --- Property: random workloads complete with consistent time --- *)

let prop_random_workload =
  QCheck.Test.make ~name:"random task graphs complete deterministically"
    ~count:50
    QCheck.(pair (int_range 1 4) (list_of_size Gen.(1 -- 20) (int_range 1 500)))
    (fun (cores, works) ->
      let run () =
        let e = Engine.create ~cores () in
        let total = ref 0L in
        List.iter
          (fun w ->
            ignore
              (Engine.spawn e (fun () ->
                   Engine.advance (Int64.of_int w);
                   Engine.yield ();
                   Engine.advance (Int64.of_int w);
                   total := Int64.add !total (Int64.of_int w))))
          works;
        Engine.run e;
        (Engine.now e, !total, Engine.live_threads e)
      in
      let t1, sum1, live1 = run () in
      let t2, sum2, live2 = run () in
      let work_total =
        List.fold_left (fun acc w -> Int64.add acc (Int64.of_int (2 * w))) 0L works
      in
      (* Deterministic; everyone ran; makespan bounds hold. *)
      t1 = t2 && sum1 = sum2 && live1 = 0 && live2 = 0
      && t1 >= Int64.div work_total (Int64.of_int cores)
      && t1 <= work_total)

let qt = QCheck_alcotest.to_alcotest

let suite =
  [
    ("single thread time", `Quick, test_single_thread_time);
    ("two cores parallel", `Quick, test_two_cores_parallel);
    ("one core serializes", `Quick, test_one_core_serializes);
    ("affinity", `Quick, test_affinity);
    ("yield migration", `Quick, test_yield_migration);
    ("sleep", `Quick, test_sleep);
    ("spawn from thread", `Quick, test_spawn_from_thread);
    ("run until", `Quick, test_run_until);
    ("blocked reported", `Quick, test_blocked_thread_reported);
    ("deterministic schedule", `Quick, test_determinism);
    ("zero advance", `Quick, test_zero_advance);
    ("negative advance", `Quick, test_negative_advance_rejected);
    ("spawn storm", `Quick, test_spawn_storm);
    ("same-time FIFO", `Quick, test_same_time_fifo);
    ("ready FIFO across run queues", `Quick, test_ready_fifo_across_queues);
    ("steal re-homes to idle core", `Quick, test_steal_rehomes);
    ("blocked pinned entry does not shadow", `Quick,
     test_pinned_blocked_does_not_shadow);
    ("128 cores fully parallel", `Quick, test_many_cores_parallel);
    ("512-core dispatch allocates O(1) words", `Quick,
     test_dispatch_allocation);
    ("waker pending", `Quick, test_waker_pending);
    ("lock mutual exclusion", `Quick, test_lock_mutual_exclusion);
    ("lock fifo", `Quick, test_lock_fifo);
    ("lock release unheld", `Quick, test_lock_release_unheld);
    ("lock release on exception", `Quick, test_lock_released_on_exception);
    ("cond signal order", `Quick, test_cond_signal_order);
    ("cond signal empty", `Quick, test_cond_signal_empty);
    ("meter", `Quick, test_meter);
    ("costs presets", `Quick, test_costs_presets);
    ("emit charges and counts", `Quick, test_emit_charges_and_counts);
    ( "emit outside thread",
      `Quick,
      test_emit_outside_thread_counts_without_charging );
    ("audit catches raw advance", `Quick, test_audit_catches_uncharged_advance);
    ("jsonl record shape", `Quick, test_trace_jsonl_record_shape);
    qt prop_event_key_injective;
    qt prop_trace_ring_bounded_and_monotonic;
    qt prop_random_workload;
  ]
