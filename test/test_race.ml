(* The race-detector suite has three legs:
   - algebraic: qcheck laws for the vector-clock lattice (partial order,
     join as least upper bound, strict monotonicity of [incr]);
   - unit: hand-fed Hb event sequences — each ordering edge kind
     (lock hand-off, spawn, wake) suppresses the race it should, the
     atomic frame-refcount model never races, and unordered conflicting
     writes yield exactly one race per location;
   - integration: a full checked run stays clean with the kernel locks
     on. The must-fail controls (no-bkl, unshard) are rows of the chaos
     table, certified in test_analysis;
   - isolation: detectors armed on one machine's bus see that machine
     and no other, whether the other runs on a second domain at the same
     time or boots after it in the same domain. *)

module Vclock = Ufork_analysis.Vclock
module Race = Ufork_analysis.Race
module Lockdep = Ufork_analysis.Lockdep
module Invariant = Ufork_analysis.Invariant
module Hb = Ufork_util.Hb
module Engine = Ufork_sim.Engine
module Api = Ufork_sas.Api
module Image = Ufork_sas.Image
module Strategy = Ufork_core.Strategy
module E = Ufork_workload.Experiments

(* {1 Vector-clock laws} *)

let clock_of_counts counts =
  List.fold_left
    (fun c (tid, n) ->
      let rec go c k = if k = 0 then c else go (Vclock.incr c tid) (k - 1) in
      go c n)
    Vclock.empty counts

let clock_gen =
  QCheck.(
    map clock_of_counts
      (small_list (pair (int_bound 3) (int_bound 4))))

let law name gen f = QCheck.Test.make ~count:300 ~name gen f

let vclock_laws =
  [
    law "leq reflexive" clock_gen (fun a -> Vclock.leq a a);
    law "leq antisymmetric" (QCheck.pair clock_gen clock_gen) (fun (a, b) ->
        (not (Vclock.leq a b && Vclock.leq b a)) || Vclock.equal a b);
    law "leq transitive"
      (QCheck.triple clock_gen clock_gen clock_gen)
      (fun (a, b, c) ->
        (not (Vclock.leq a b && Vclock.leq b c)) || Vclock.leq a c);
    law "join is an upper bound" (QCheck.pair clock_gen clock_gen)
      (fun (a, b) ->
        let j = Vclock.join a b in
        Vclock.leq a j && Vclock.leq b j);
    law "join is the least upper bound"
      (QCheck.triple clock_gen clock_gen clock_gen)
      (fun (a, b, c) ->
        (not (Vclock.leq a c && Vclock.leq b c))
        || Vclock.leq (Vclock.join a b) c);
    law "join commutative" (QCheck.pair clock_gen clock_gen) (fun (a, b) ->
        Vclock.equal (Vclock.join a b) (Vclock.join b a));
    law "join associative"
      (QCheck.triple clock_gen clock_gen clock_gen)
      (fun (a, b, c) ->
        Vclock.equal
          (Vclock.join a (Vclock.join b c))
          (Vclock.join (Vclock.join a b) c));
    law "join idempotent" clock_gen (fun a ->
        Vclock.equal (Vclock.join a a) a);
    law "incr strictly increases" (QCheck.pair clock_gen (QCheck.int_bound 3))
      (fun (a, t) -> Vclock.lt a (Vclock.incr a t));
    law "join is pointwise max"
      (QCheck.triple clock_gen clock_gen (QCheck.int_bound 3))
      (fun (a, b, t) ->
        Vclock.get (Vclock.join a b) t = max (Vclock.get a t) (Vclock.get b t));
  ]

(* {1 Unit: hand-fed event sequences} *)

let replay events =
  let bus = Hb.create () in
  let d = Race.create bus in
  List.iter (Hb.emit bus) events;
  d

let gauge_write tid = Hb.Write { tid; loc = Hb.Gauge "g"; site = "test" }
let pte_write tid vpn = Hb.Write { tid; loc = Hb.Pte { table = 1; vpn }; site = "test" }
let frame_write tid = Hb.Write { tid; loc = Hb.Frame 7; site = "test" }

let test_unordered_race () =
  let d = replay [ gauge_write 1; gauge_write 2 ] in
  Alcotest.(check int) "one race" 1 (List.length (Race.races d));
  match Race.races d with
  | [ r ] ->
      Alcotest.(check int) "first writer" 1 r.Race.first.Race.tid;
      Alcotest.(check int) "second writer" 2 r.Race.second.Race.tid
  | _ -> assert false

let test_one_report_per_location () =
  let d = replay [ gauge_write 1; gauge_write 2; gauge_write 1; gauge_write 2 ] in
  Alcotest.(check int) "deduplicated" 1 (List.length (Race.races d));
  let d =
    replay [ pte_write 1 0; pte_write 2 0; pte_write 1 9; pte_write 2 9 ]
  in
  Alcotest.(check int) "distinct vpns are distinct locations" 2
    (List.length (Race.races d))

let test_same_tid_never_races () =
  let d = replay [ gauge_write 1; gauge_write 1; pte_write 1 0; pte_write 1 0 ] in
  Alcotest.(check int) "program order suffices" 0 (List.length (Race.races d))

let test_lock_handoff_orders () =
  let d =
    replay
      [
        Hb.Acquire { tid = 1; lock = 0 };
        gauge_write 1;
        Hb.Release { tid = 1; lock = 0 };
        Hb.Acquire { tid = 2; lock = 0 };
        gauge_write 2;
        Hb.Release { tid = 2; lock = 0 };
      ]
  in
  Alcotest.(check int) "lock hand-off is an edge" 0 (List.length (Race.races d));
  (* A different lock draws no edge between these threads. *)
  let d =
    replay
      [
        Hb.Acquire { tid = 1; lock = 0 };
        gauge_write 1;
        Hb.Release { tid = 1; lock = 0 };
        Hb.Acquire { tid = 2; lock = 5 };
        gauge_write 2;
        Hb.Release { tid = 2; lock = 5 };
      ]
  in
  Alcotest.(check int) "disjoint locks do not order" 1
    (List.length (Race.races d))

let test_spawn_orders () =
  let d = replay [ pte_write 1 3; Hb.Spawn { parent = 1; child = 2 }; pte_write 2 3 ] in
  Alcotest.(check int) "spawn is an edge" 0 (List.length (Race.races d));
  let d = replay [ Hb.Spawn { parent = 1; child = 2 }; pte_write 1 3; pte_write 2 3 ] in
  Alcotest.(check int) "writes after the spawn still race" 1
    (List.length (Race.races d))

let test_wake_orders () =
  let d = replay [ gauge_write 1; Hb.Wake { by = 1; target = 2 }; gauge_write 2 ] in
  Alcotest.(check int) "wake is an edge" 0 (List.length (Race.races d))

let test_frames_are_atomic () =
  (* Frame refcounts model atomic RMWs: concurrent updates synchronize
     rather than race, and the joined clock orders later accesses. *)
  let d = replay [ frame_write 1; frame_write 2; frame_write 1 ] in
  Alcotest.(check int) "atomics never race" 0 (List.length (Race.races d));
  let d = replay [ gauge_write 1; frame_write 1; frame_write 2; gauge_write 2 ] in
  Alcotest.(check int) "atomic RMW chain carries the edge" 0
    (List.length (Race.races d))

let test_violation_rendering () =
  let d = replay [ gauge_write 1; gauge_write 2 ] in
  match Race.violations d with
  | [ v ] ->
      Alcotest.(check string) "id" "R1" (Ufork_analysis.Invariant.id v.invariant);
      Alcotest.(check bool) "names the location" true
        (let detail = v.Ufork_analysis.Invariant.detail in
         String.length detail > 0)
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

(* {1 Integration: checked runs} *)

let test_locked_run_clean () =
  E.with_run
    { E.empty_run with detect = [ Ufork_analysis.Invariant.Data_race ] }
    (fun () ->
      let r = E.hello_run (E.Ufork Strategy.Copa) in
      Alcotest.(check bool) "run completes" true (r.E.fork_latency_us > 0.))

(* {1 Isolation between machines} *)

(* A booted storm machine (one forker per core, each forking and
   reaping [iters] children) with race and lockdep armed on its bus.
   Booted outside any installed run, so nothing else is armed. *)
let armed_storm (system, cores) =
  let b = E.boot ~cores system in
  let bus = Engine.bus b.E.engine in
  let race = Race.create bus and lockdep = Lockdep.create bus in
  for _ = 1 to cores do
    ignore
      (b.E.start ~image:Image.hello (fun api ->
           let cell = api.Api.malloc 4096 in
           api.Api.got_set 0 cell;
           for _ = 1 to 3 do
             ignore
               (api.Api.fork (fun capi ->
                    capi.Api.write_u64 (capi.Api.got_get 0) ~off:0 1L;
                    capi.Api.exit 0));
             ignore (api.Api.wait ());
             api.Api.write_u64 cell ~off:0 2L
           done))
  done;
  (b, race, lockdep)

(* Everything the two detectors report about one machine. *)
let verdict (b, race, lockdep) =
  E.finish_run b;
  ( Race.events_seen race,
    Lockdep.events_seen lockdep,
    Lockdep.edges lockdep,
    List.map
      (Format.asprintf "%a" Invariant.pp_violation)
      (Race.violations race @ Lockdep.violations lockdep)
  )

let verdict_t =
  Alcotest.(
    pair (pair int int) (pair (list (pair string string)) (list string)))

let flat (r, l, e, v) = ((r, l), (e, v))

let solo m =
  let ((b, _, _) as armed) = armed_storm m in
  b.E.run ();
  verdict armed

let storms =
  [ (E.Ufork Strategy.Copa, 16); (E.Cheribsd, 8) ]

let test_concurrent_machines_isolated () =
  let alone = List.map solo storms in
  let together =
    List.map
      (fun m ->
        Domain.spawn (fun () ->
            let ((b, _, _) as armed) = armed_storm m in
            b.E.run ();
            verdict armed))
      storms
    |> List.map Domain.join
  in
  List.iter2
    (fun a t ->
      let (r, _, _, _) = a in
      Alcotest.(check bool) "the detectors saw the run" true (r > 0);
      Alcotest.check verdict_t "concurrent verdict = solo verdict" (flat a)
        (flat t))
    alone together

let test_later_machine_invisible () =
  let a = List.hd storms and b_sys = List.nth storms 1 in
  let ((a_booted, a_race, a_lockdep) as armed_a) = armed_storm a in
  let seen () = (Race.events_seen a_race, Lockdep.events_seen a_lockdep) in
  let before = seen () in
  let (b_booted, _, _) = armed_storm b_sys in
  b_booted.E.run ();
  E.finish_run b_booted;
  Alcotest.(check (pair int int)) "A's detectors saw none of B's run" before
    (seen ());
  a_booted.E.run ();
  Alcotest.check verdict_t "A's verdict = its solo verdict"
    (flat (solo a)) (flat (verdict armed_a))

let suite =
  List.map QCheck_alcotest.to_alcotest vclock_laws
  @ [
      Alcotest.test_case "unordered writes race" `Quick test_unordered_race;
      Alcotest.test_case "one report per location" `Quick
        test_one_report_per_location;
      Alcotest.test_case "program order suffices" `Quick
        test_same_tid_never_races;
      Alcotest.test_case "lock hand-off orders" `Quick test_lock_handoff_orders;
      Alcotest.test_case "spawn orders" `Quick test_spawn_orders;
      Alcotest.test_case "wake orders" `Quick test_wake_orders;
      Alcotest.test_case "frame refcounts are atomic" `Quick
        test_frames_are_atomic;
      Alcotest.test_case "violations render as R1" `Quick
        test_violation_rendering;
      Alcotest.test_case "locked run is clean" `Quick test_locked_run_clean;
      Alcotest.test_case "concurrent machines are isolated" `Quick
        test_concurrent_machines_isolated;
      Alcotest.test_case "a later machine is invisible" `Quick
        test_later_machine_invisible;
    ]
