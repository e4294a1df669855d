(* The lock-order checker (R2) suite, mirroring test_race's three legs:
   - unit: hand-fed Hb acquisition sequences — consistent nesting stays
     clean, an ABBA inversion is exactly one violation, descending
     pt-shard pairs are caught on the inverting acquisition, reports
     deduplicate per ordered pair;
   - algebraic: qcheck properties — random nested acquisition chains are
     flagged exactly when the reference digraph over their nesting pairs
     has a cycle, and ascending shard pairs are never flagged;
   - instrumentation and integration: the frame-pool fast path publishes
     guarded Pool writes (and a seeded unlocked drain races as R1), the
     per-lock contention counters surface through Sync, and full checked
     runs are clean. The must-fail control (invert-shard-order) is a row
     of the chaos table, certified in test_analysis. *)

module Lockdep = Ufork_analysis.Lockdep
module Race = Ufork_analysis.Race
module Invariant = Ufork_analysis.Invariant
module Hb = Ufork_util.Hb
module Phys = Ufork_mem.Phys
module Sync = Ufork_sim.Sync
module Strategy = Ufork_core.Strategy
module E = Ufork_workload.Experiments

(* Stable ids for the named test locks. *)
let lock_a = 9001
let lock_b = 9002
let shard i = 9100 + i
let chain_names = [| "lock.q0"; "lock.q1"; "lock.q2"; "lock.q3" |]
let chain_lock i = 9200 + i

(* A bus of its own for each replay, with every test lock named on it. *)
let test_bus () =
  let bus = Hb.create () in
  Hb.set_lock_name bus lock_a "lock.test.a";
  Hb.set_lock_name bus lock_b "lock.test.b";
  for i = 0 to 15 do
    Hb.set_lock_name bus (shard i) (Printf.sprintf "lock.pt_shard.%02d" i)
  done;
  Array.iteri (fun i n -> Hb.set_lock_name bus (chain_lock i) n) chain_names;
  bus

let replay events =
  let bus = test_bus () in
  let d = Lockdep.create bus in
  List.iter (Hb.emit bus) events;
  d

let acq tid lock = Hb.Acquire { tid; lock }
let rel tid lock = Hb.Release { tid; lock }

(* {1 Unit: hand-fed acquisition sequences} *)

let test_consistent_order_clean () =
  let d =
    replay
      [
        acq 1 lock_a; acq 1 lock_b; rel 1 lock_b; rel 1 lock_a;
        acq 2 lock_a; acq 2 lock_b; rel 2 lock_b; rel 2 lock_a;
      ]
  in
  Alcotest.(check int) "no violations" 0 (List.length (Lockdep.violations d));
  Alcotest.(check (list (pair string string)))
    "one observed edge"
    [ ("lock.test.a", "lock.test.b") ]
    (Lockdep.edges d)

let test_abba_cycle () =
  let d =
    replay
      [
        acq 1 lock_a; acq 1 lock_b; rel 1 lock_b; rel 1 lock_a;
        acq 2 lock_b; acq 2 lock_a; rel 2 lock_a; rel 2 lock_b;
      ]
  in
  match Lockdep.violations d with
  | [ v ] ->
      Alcotest.(check string) "id" "R2" (Invariant.id v.Invariant.invariant);
      Alcotest.(check bool) "names both locks" true
        (let detail = v.Invariant.detail in
         let contains needle hay =
           let nh = String.length hay and nn = String.length needle in
           let rec go i =
             i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
           in
           go 0
         in
         contains "lock.test.a" detail && contains "lock.test.b" detail)
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let test_descending_shards_flagged () =
  let d =
    replay [ acq 1 (shard 1); acq 1 (shard 0); rel 1 (shard 0); rel 1 (shard 1) ]
  in
  Alcotest.(check int) "one violation" 1 (List.length (Lockdep.violations d))

let test_ascending_shards_clean () =
  let d =
    replay
      [ acq 1 (shard 0); acq 1 (shard 1); rel 1 (shard 1); rel 1 (shard 0) ]
  in
  Alcotest.(check int) "clean" 0 (List.length (Lockdep.violations d))

let test_dedup_per_pair () =
  let inversion tid =
    [ acq tid (shard 3); acq tid (shard 2); rel tid (shard 2); rel tid (shard 3) ]
  in
  let d = replay (inversion 1 @ inversion 2 @ inversion 1) in
  Alcotest.(check int) "one report per ordered pair" 1
    (List.length (Lockdep.violations d))

let test_events_seen () =
  let d = replay [ acq 1 lock_a; rel 1 lock_a ] in
  Alcotest.(check int) "instrumentation counted" 2 (Lockdep.events_seen d)

(* {1 qcheck: cycle detection against a reference digraph} *)

(* A chain is a nested acquisition: locks taken in list order, released
   in reverse. Distinct locks within a chain, so the only possible
   violations are cross-chain cycles. *)
let chain_gen =
  QCheck.Gen.(
    int_range 1 4 >>= fun n ->
    shuffle_l [ 0; 1; 2; 3 ] >|= fun perm ->
    List.filteri (fun i _ -> i < n) perm)

let chains_gen = QCheck.Gen.(list_size (int_range 1 6) chain_gen)

let chains_arbitrary =
  QCheck.make chains_gen
    ~print:(fun chains ->
      String.concat "; "
        (List.map
           (fun c -> String.concat "<" (List.map string_of_int c))
           chains))

let events_of_chains chains =
  List.concat
    (List.mapi
       (fun tid chain ->
         List.map (fun i -> acq (tid + 1) (chain_lock i)) chain
         @ List.rev_map (fun i -> rel (tid + 1) (chain_lock i)) chain)
       chains)

(* Reference: the nesting digraph has an edge i -> j for every pair
   taken outer-to-inner in some chain; a true deadlock risk is exactly a
   directed cycle. *)
let reference_has_cycle chains =
  let edges = Hashtbl.create 16 in
  List.iter
    (fun chain ->
      let rec pairs = function
        | x :: rest ->
            List.iter (fun y -> Hashtbl.replace edges (x, y) ()) rest;
            pairs rest
        | [] -> ()
      in
      pairs chain)
    chains;
  let n = Array.length chain_names in
  let color = Array.make n 0 in
  let rec dfs u =
    color.(u) <- 1;
    let back = ref false in
    for v = 0 to n - 1 do
      if Hashtbl.mem edges (u, v) then
        if color.(v) = 1 then back := true
        else if color.(v) = 0 && dfs v then back := true
    done;
    color.(u) <- 2;
    !back
  in
  let any = ref false in
  for u = 0 to n - 1 do
    if color.(u) = 0 && dfs u then any := true
  done;
  !any

let prop_cycle_iff =
  QCheck.Test.make ~count:500 ~name:"violation iff the nesting digraph cycles"
    chains_arbitrary (fun chains ->
      let d = replay (events_of_chains chains) in
      Lockdep.violations d <> [] = reference_has_cycle chains)

let shard_pairs_gen =
  QCheck.Gen.(
    list_size (int_range 1 8)
      ( int_range 0 14 >>= fun i ->
        int_range (i + 1) 15 >|= fun j -> (i, j) ))

let prop_ascending_shards_clean =
  QCheck.Test.make ~count:300 ~name:"ascending shard pairs never flagged"
    (QCheck.make shard_pairs_gen)
    (fun pairs ->
      let events =
        List.concat_map
          (fun (i, j) ->
            [ acq 1 (shard i); acq 1 (shard j); rel 1 (shard j);
              rel 1 (shard i) ])
          pairs
      in
      Lockdep.violations (replay events) = [])

(* {1 The frame-pool fast path on the bus} *)

let test_pool_transfers_guarded_and_published () =
  (* Churn one core's freelist past the drain threshold and back: every
     global-pool transfer must run inside the injected guard and publish
     one Pool write. *)
  let pool = Phys.create ~cores:1 () in
  let guarded = ref 0 and writes = ref 0 in
  Phys.set_pool_guard pool (fun f -> incr guarded; f ());
  Hb.subscribe (Phys.bus pool) (function
    | Hb.Write { loc = Hb.Pool; _ } -> incr writes
    | _ -> ());
  let frames = List.init 70 (fun _ -> Phys.alloc pool) in
  List.iter (fun f -> Phys.release pool f) frames;
  Alcotest.(check int) "one batched drain" 1 (Phys.drains pool);
  let again = List.init 40 (fun _ -> Phys.alloc pool) in
  Alcotest.(check int) "one batched refill" 1 (Phys.refills pool);
  (* Releasing these pushes the freelist over the threshold once more: a
     second drain. *)
  List.iter (fun f -> Phys.release pool f) again;
  Alcotest.(check int) "second batched drain" 2 (Phys.drains pool);
  Alcotest.(check int) "each transfer published one Pool write" 3 !writes;
  Alcotest.(check bool) "every transfer ran under the guard" true
    (!guarded >= !writes)

let test_unlocked_drain_races () =
  (* A drain reaching the shared pool with no lock edge between the
     draining threads is exactly the bug R1 must flag on the Pool
     location. *)
  let pool_write tid = Hb.Write { tid; loc = Hb.Pool; site = "Phys.drain" } in
  let race events =
    let bus = test_bus () in
    let d = Race.create bus in
    List.iter (Hb.emit bus) events;
    d
  in
  let d = race [ pool_write 1; pool_write 2 ] in
  Alcotest.(check int) "seeded unlocked drain flagged" 1
    (List.length (Race.races d));
  (* The same two drains under the frame-pool lock hand-off are
     ordered. *)
  let d =
    race
      [
        acq 1 lock_a; pool_write 1; rel 1 lock_a;
        acq 2 lock_a; pool_write 2; rel 2 lock_a;
      ]
  in
  Alcotest.(check int) "guarded drains are ordered" 0
    (List.length (Race.races d))

(* {1 Contention counters} *)

let test_contention_counters () =
  Sync.reset_lock_contention ();
  ignore (E.hello_run (E.Ufork Strategy.Copa));
  let rows = Sync.lock_contention () in
  let find name =
    List.find_opt (fun (c : Sync.contention) -> c.Sync.lock = name) rows
  in
  (match find "lock.frame_pool" with
  | Some c ->
      Alcotest.(check bool) "frame pool acquired" true (c.Sync.acquires > 0)
  | None -> Alcotest.fail "no lock.frame_pool contention row");
  let text = Sync.lock_contention_prometheus () in
  let contains needle hay =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "prometheus text has %s" needle)
        true (contains needle text))
    [ "ufork_lock_acquire_total"; "ufork_lock_wait_total"; "# TYPE" ]

(* {1 Integration: checked runs} *)

let checked detect f = E.with_run { E.empty_run with detect } f

let test_checked_run_clean () =
  checked [ Invariant.Lock_order ] (fun () ->
      let r = E.hello_run (E.Ufork Strategy.Copa) in
      Alcotest.(check bool) "run completes" true (r.E.fork_latency_us > 0.))

let test_race_and_lockdep_compose () =
  (* Both detectors subscribe to the one bus side by side; a clean run
     stays clean with both armed. *)
  checked [ Invariant.Data_race; Invariant.Lock_order ] (fun () ->
      ignore (E.hello_run (E.Ufork Strategy.Copa)))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_cycle_iff; prop_ascending_shards_clean ]
  @ [
      Alcotest.test_case "consistent order is clean" `Quick
        test_consistent_order_clean;
      Alcotest.test_case "ABBA inversion is one R2" `Quick test_abba_cycle;
      Alcotest.test_case "descending shard pair flagged" `Quick
        test_descending_shards_flagged;
      Alcotest.test_case "ascending shard pair clean" `Quick
        test_ascending_shards_clean;
      Alcotest.test_case "one report per ordered pair" `Quick
        test_dedup_per_pair;
      Alcotest.test_case "events are counted" `Quick test_events_seen;
      Alcotest.test_case "pool transfers guarded and published" `Quick
        test_pool_transfers_guarded_and_published;
      Alcotest.test_case "seeded unlocked drain races as R1" `Quick
        test_unlocked_drain_races;
      Alcotest.test_case "per-lock contention counters" `Quick
        test_contention_counters;
      Alcotest.test_case "checked run is clean" `Quick test_checked_run_clean;
      Alcotest.test_case "race and lockdep compose on one bus" `Quick
        test_race_and_lockdep_compose;
    ]
