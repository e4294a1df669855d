(* Schedule pinning: fixed-seed scenarios mixing pinned and unpinned
   threads with yield, sleep, lock and condition waits, and wakes
   delivered from outside event processing. Every thread logs
   (tid, core, now) each time it resumes; the log plus the engine's
   steal count is digested and compared with digests recorded from the
   single-FIFO reference schedule. Any change to which entry runs next
   or on which core changes a digest. *)

module Engine = Ufork_sim.Engine
module Sync = Ufork_sim.Sync

type op =
  | Compute of int
  | Yield
  | Sleep of int
  | Locked of int * int  (** Lock index, cycles held. *)
  | Wait  (** On the shared condition; signalled from outside. *)
  | Spawn_child of int  (** An unpinned child that computes this long. *)

let resumed log e =
  Printf.bprintf log "%d:%d:%Ld;" (Engine.running_tid e)
    (Engine.running_core e) (Engine.now e)

(* Boot [cores] cores, let [setup] spawn the threads, then run in
   rounds: each round runs to a deadline and then signals the shared
   condition from outside any thread, so a blocked waiter is resumed by
   a dispatch outside event processing. *)
let digest ~cores setup =
  let e = Engine.create ~cores () in
  let log = Buffer.create 4096 in
  let cond = Sync.Cond.create () in
  setup e log cond;
  let round = ref 1 in
  while Engine.live_threads e > 0 && !round <= 10_000 do
    Engine.run ~until:(Int64.of_int (!round * 700)) e;
    Sync.Cond.signal cond;
    incr round
  done;
  Alcotest.(check int) "every thread finished" 0 (Engine.live_threads e);
  Printf.bprintf log "steals=%d" (Engine.steals e);
  Digest.to_hex (Digest.string (Buffer.contents log))

let mixed e log cond =
  let rng = Random.State.make [| 24301 |] in
  let cores = Engine.cores e in
  let locks = Array.init 2 (fun _ -> Sync.Lock.create ()) in
  let run_op = function
    | Compute n -> Engine.advance (Int64.of_int n)
    | Yield -> Engine.yield ()
    | Sleep n -> Engine.sleep (Int64.of_int n)
    | Locked (l, n) ->
        Sync.Lock.with_lock locks.(l) (fun () ->
            Engine.advance (Int64.of_int n))
    | Wait -> Sync.Cond.wait cond
    | Spawn_child n ->
        ignore
          (Engine.spawn e (fun () ->
               resumed log e;
               Engine.advance (Int64.of_int n);
               resumed log e))
  in
  let random_op () =
    match Random.State.int rng 12 with
    | 0 | 1 | 2 -> Compute (1 + Random.State.int rng 400)
    | 3 | 4 -> Yield
    | 5 | 6 -> Sleep (1 + Random.State.int rng 300)
    | 7 | 8 -> Locked (Random.State.int rng 2, 1 + Random.State.int rng 80)
    | 9 | 10 -> Wait
    | _ -> Spawn_child (1 + Random.State.int rng 200)
  in
  for _ = 1 to 40 do
    let affinity =
      if Random.State.int rng 3 = 0 then Some (Random.State.int rng cores)
      else None
    in
    let ops = List.init 14 (fun _ -> random_op ()) in
    ignore
      (Engine.spawn ?affinity e (fun () ->
           resumed log e;
           List.iter
             (fun op ->
               run_op op;
               resumed log e)
             ops))
  done

(* Core 0 is held by a long pinned thread while a second thread pinned
   to it waits; younger unpinned work, half of it homed on core 0, must
   run past the waiting pinned entry (stolen onto other cores when
   core 0 is its home). *)
let busy_pinned_core e log _cond =
  let cores = Engine.cores e in
  ignore
    (Engine.spawn ~affinity:0 e (fun () ->
         resumed log e;
         Engine.advance 1000L;
         resumed log e;
         Engine.yield ();
         resumed log e;
         Engine.advance 100L;
         resumed log e));
  ignore
    (Engine.spawn ~affinity:0 e (fun () ->
         resumed log e;
         Engine.advance 10L;
         resumed log e));
  for i = 1 to 2 * cores do
    ignore
      (Engine.spawn e (fun () ->
           resumed log e;
           Engine.advance (Int64.of_int (50 + (i mod 7)));
           Engine.yield ();
           resumed log e;
           Engine.sleep 20L;
           resumed log e))
  done

(* Digests of the single-FIFO reference schedule, by core count. *)
let expected =
  [
    ( "mixed",
      mixed,
      [
        (1, "bd882be6568a2de36c64c978768c2a78");
        (4, "885c9310bb09e4ef9efff70822b7a994");
        (64, "0b8badedffaab1cfa34e6d3e0b5ad1f5");
        (512, "9d014bc7baa1436a0eb7914e59539cd0");
      ] );
    ( "busy pinned core",
      busy_pinned_core,
      [
        (1, "1146b3f3c072bc891824ab46c5ec4ead");
        (4, "fb1910838e0999f75b1197a4586522a7");
        (64, "75f0501049351c48f9f7e730611edabf");
        (512, "2e5f0ea3046191ff56844e35cad5aa0f");
      ] );
  ]

let suite =
  List.concat_map
    (fun (name, setup, by_cores) ->
      List.map
        (fun (cores, want) ->
          ( Printf.sprintf "%s @ %d cores" name cores,
            `Quick,
            fun () ->
              Alcotest.(check string) "schedule digest" want
                (digest ~cores setup) ))
        by_cores)
    expected
