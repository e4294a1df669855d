module Hb = Ufork_util.Hb

type tid = int

(* Min-heap of (time, seq, action); seq breaks ties FIFO so the schedule is
   deterministic. *)
module Heap = struct
  type entry = { time : int64; seq : int; action : unit -> unit }
  type t = { mutable a : entry array; mutable len : int }

  let dummy = { time = 0L; seq = 0; action = (fun () -> ()) }
  let create () = { a = Array.make 256 dummy; len = 0 }

  let lt x y = x.time < y.time || (x.time = y.time && x.seq < y.seq)

  let push h e =
    if h.len = Array.length h.a then begin
      let a' = Array.make (2 * h.len) dummy in
      Array.blit h.a 0 a' 0 h.len;
      h.a <- a'
    end;
    h.a.(h.len) <- e;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && lt h.a.(!i) h.a.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let is_empty h = h.len = 0

  (* Allocation-free peek for the advance fast path: no event at or
     before [target]? *)
  let min_time_exceeds h target = h.len = 0 || h.a.(0).time > target

  let pop h =
    let top = h.a.(0) in
    h.len <- h.len - 1;
    h.a.(0) <- h.a.(h.len);
    h.a.(h.len) <- dummy;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.len && lt h.a.(l) h.a.(!smallest) then smallest := l;
      if r < h.len && lt h.a.(r) h.a.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = h.a.(!smallest) in
        h.a.(!smallest) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := !smallest
      end
      else continue := false
    done;
    top
end

type core = { index : int; mutable busy : bool }

type thread = {
  tid : tid;
  name : string;
  affinity : int option;
  mutable finished : bool;
  mutable home : int;
      (* The core this thread runs on when it is dispatched and that core
         is idle: its affinity core when pinned, otherwise the core it
         last ran on (initially tid mod cores). Work stealing migrates
         unpinned threads and re-homes them to the stealing core. *)
  mutable cur_core : core option;
      (* The core the thread currently occupies; threads can migrate across
         yields, so the effect handler must read this rather than close
         over a core. *)
}

(* What a ready thread resumes into: its initial body or a suspended
   continuation. *)
type resume =
  | Start of (unit -> unit)
  | Cont of (unit, unit) Effect.Deep.continuation

(* A ready thread, stamped with the global ready sequence. *)
type entry = { thread : thread; resume : resume; seq : int }

type t = {
  core_array : core array;
  events : Heap.t;
  mutable now : int64;
  mutable advanced : int64;
  mutable seq : int;
  unpinned : entry Queue.t;
      (* Every ready unpinned thread. Stamps only grow, so this FIFO is
         in age order: its head is the oldest unpinned entry. *)
  pinned : entry Queue.t array;
      (* One FIFO per core of the ready threads pinned to it, each in
         age order for the same reason. *)
  mutable pinned_ready : int;
      (* Entries across all [pinned] queues; 0 lets dispatch skip them. *)
  mutable idle : int;  (* Cores not busy. *)
  mutable ready_seq : int;
  mutable steals : int;
  mutable live : int;
  mutable blocked : int;
  mutable next_tid : int;
  mutable in_event : bool;
  mutable until_limit : int64;
      (* [run]'s [?until] deadline (Int64.max_int when none), mirrored
         here so the advance fast path never passes time inline beyond
         a truncation point the run loop would have stopped at. *)
  mutable inline_depth : int;
      (* Live inline-advance resumes on the host stack right now. Each
         inline [continue] nests native frames until the next slow-path
         suspension unwinds the whole chain, so the fast path bails to
         the heap once the chain gets deep — same schedule, bounded
         stack. *)
  mutable active_resumes : int;
      (* Distinct thread stretches live on the host stack: one per
         [exec] or advance-completion resume (inline resumes continue
         the same stretch and don't count). Normally 1 while a thread
         runs; 2+ when a wake outside event processing dispatches a
         nested thread. The advance fast path requires exactly 1 — a
         thread nested below is still positioned at the old [now], so
         passing time inline over it would shift where it resumes. *)
  mutable running_tid : tid;
  mutable running_core : int;
  mutable running_name : string;
      (* The thread currently executing host code on this engine, or
         (-1, -1, "") between threads. Plain fields, so the per-event
         accounting path and the bus read them without an effect
         dispatch. Saved and restored around
         every resume: a running thread that calls [wake] can dispatch a
         nested [exec] on an idle core, so plain reset to -1 would
         clobber the outer thread's identity. *)
  bus : Hb.t Lazy.t;
      (* This machine's happens-before bus. Lazy only to tie the knot:
         its clock readers are the fields above. *)
}

type waker = { mutable target : (t * thread * resume) option }

(* Cap on nested inline-advance resumes (see [inline_depth]): deep
   enough that single-threaded stretches almost never fall back, shallow
   enough that the native stack stays bounded. *)
let max_inline_depth = 1024

type _ Effect.t +=
  | Advance : int64 -> unit Effect.t
  | Yield : unit Effect.t
  | Suspend : (waker -> unit) -> unit Effect.t
  | Get_time : int64 Effect.t

let max_cores = 1024

let create ?(cores = 4) () =
  if cores <= 0 then invalid_arg "Engine.create: cores <= 0";
  if cores > max_cores then invalid_arg "Engine.create: cores > 1024";
  let rec t =
    {
      core_array = Array.init cores (fun index -> { index; busy = false });
      events = Heap.create ();
      now = 0L;
      advanced = 0L;
      seq = 0;
      unpinned = Queue.create ();
      pinned = Array.init cores (fun _ -> Queue.create ());
      pinned_ready = 0;
      idle = cores;
      ready_seq = 0;
      steals = 0;
      live = 0;
      blocked = 0;
      next_tid = 0;
      in_event = false;
      until_limit = Int64.max_int;
      inline_depth = 0;
      active_resumes = 0;
      running_tid = -1;
      running_core = -1;
      running_name = "";
      bus =
        lazy
          (Hb.create
             ~tid:(fun () -> t.running_tid)
             ~core:(fun () -> t.running_core)
             ~now:(fun () -> t.now)
             ());
    }
  in
  t

let cores t = Array.length t.core_array
let now t = t.now
let advanced t = t.advanced
let live_threads t = t.live
let blocked_threads t = t.blocked
let steals t = t.steals
let running_tid t = t.running_tid
let running_core t = t.running_core
let running_name t = t.running_name
let bus t = Lazy.force t.bus

let ready_count t = Queue.length t.unpinned + t.pinned_ready

(* Enqueue a ready thread: on its affinity core's FIFO when pinned, on
   the unpinned FIFO otherwise. The global ready-seq stamp is what keeps
   the schedule identical to a single-FIFO engine: dispatch runs
   entries in stamp order. *)
let make_ready t thread resume =
  t.ready_seq <- t.ready_seq + 1;
  let e = { thread; resume; seq = t.ready_seq } in
  match thread.affinity with
  | Some a ->
      Queue.push e t.pinned.(a);
      t.pinned_ready <- t.pinned_ready + 1
  | None -> Queue.push e t.unpinned

let schedule t time action =
  t.seq <- t.seq + 1;
  Heap.push t.events { time; seq = t.seq; action }

let occupied_core thread =
  match thread.cur_core with
  | Some c -> c
  | None -> invalid_arg "Engine: thread has no core (engine bug)"

let release_core t thread =
  (occupied_core thread).busy <- false;
  t.idle <- t.idle + 1;
  thread.cur_core <- None

(* Run a thread fragment on a core until it suspends or finishes. Simulated
   time does not move while the OCaml code runs; it passes only through
   Advance/sleep.

   Every site that resumes thread code — here and the advance-completion
   action below — brackets the resume with a save/set/restore of the
   running_* mirror fields, on the exception path too: a crashing thread
   must not leave a stale identity behind for host-side emissions to
   pick up. *)
let exec t core thread resume =
  core.busy <- true;
  t.idle <- t.idle - 1;
  thread.cur_core <- Some core;
  thread.home <- core.index;
  let prev_tid = t.running_tid
  and prev_core = t.running_core
  and prev_name = t.running_name in
  t.running_tid <- thread.tid;
  t.running_core <- core.index;
  t.running_name <- thread.name;
  let resumed () =
    match resume with
    | Cont k ->
        (* The deep handler installed at Start travels with the
           continuation. *)
        Effect.Deep.continue k ()
    | Start body ->
        Effect.Deep.match_with body ()
          {
            retc =
              (fun () ->
                thread.finished <- true;
                t.live <- t.live - 1;
                release_core t thread);
            exnc =
              (fun e ->
                (* A crashing thread must not leave its core marked busy. *)
                thread.finished <- true;
                t.live <- t.live - 1;
                release_core t thread;
                raise e);
            effc =
              (fun (type a) (eff : a Effect.t) ->
                match eff with
                | Advance n ->
                    Some
                      (fun (k : (a, unit) Effect.Deep.continuation) ->
                        if n < 0L then
                          (* Deliver the error at the perform site. *)
                          Effect.Deep.discontinue k
                            (Invalid_argument "Engine.advance: negative")
                        else begin
                          (* The core stays busy until the advance
                             completes. *)
                          t.advanced <- Int64.add t.advanced n;
                          let target = Int64.add t.now n in
                          if
                            ready_count t = 0
                            && t.active_resumes = 1
                            && Heap.min_time_exceeds t.events target
                            && target <= t.until_limit
                            && t.inline_depth < max_inline_depth
                          then begin
                            (* Nothing — no ready thread, no event at or
                               before [target], no [~until] deadline —
                               can run before this advance completes, so
                               the scheduled continuation would be the
                               very next thing the run loop pops. Pass
                               time inline and keep the thread on its
                               core, skipping the suspend/heap
                               round-trip. Equal-time heap events hold
                               an older seq stamp and must win, hence
                               the strict [>] in the peek. *)
                            t.now <- target;
                            t.inline_depth <- t.inline_depth + 1;
                            (* The slow path would resume this thread
                               inside an event action, where [wake]
                               defers dispatch to the run loop; mimic
                               that, or a wake in the inlined stretch
                               would dispatch immediately and reorder
                               the schedule. *)
                            let prev_in_event = t.in_event in
                            t.in_event <- true;
                            match Effect.Deep.continue k () with
                            | () ->
                                t.in_event <- prev_in_event;
                                t.inline_depth <- t.inline_depth - 1
                            | exception e ->
                                t.in_event <- prev_in_event;
                                t.inline_depth <- t.inline_depth - 1;
                                raise e
                          end
                          else
                          let c = occupied_core thread in
                          schedule t target (fun () ->
                              thread.cur_core <- Some c;
                              let prev_tid = t.running_tid
                              and prev_core = t.running_core
                              and prev_name = t.running_name in
                              t.running_tid <- thread.tid;
                              t.running_core <- c.index;
                              t.running_name <- thread.name;
                              t.active_resumes <- t.active_resumes + 1;
                              match Effect.Deep.continue k () with
                              | () ->
                                  t.active_resumes <- t.active_resumes - 1;
                                  t.running_tid <- prev_tid;
                                  t.running_core <- prev_core;
                                  t.running_name <- prev_name
                              | exception e ->
                                  t.active_resumes <- t.active_resumes - 1;
                                  t.running_tid <- prev_tid;
                                  t.running_core <- prev_core;
                                  t.running_name <- prev_name;
                                  raise e)
                        end)
              | Yield ->
                  Some
                    (fun k ->
                      release_core t thread;
                      make_ready t thread (Cont k))
              | Suspend register ->
                  Some
                    (fun k ->
                      if Hb.on (bus t) then
                        Hb.emit (bus t) (Hb.Block { tid = thread.tid });
                      release_core t thread;
                      t.blocked <- t.blocked + 1;
                      register { target = Some (t, thread, Cont k) })
              | Get_time -> Some (fun k -> Effect.Deep.continue k t.now)
                | _ -> None);
          }
  in
  t.active_resumes <- t.active_resumes + 1;
  match resumed () with
  | () ->
      t.active_resumes <- t.active_resumes - 1;
      t.running_tid <- prev_tid;
      t.running_core <- prev_core;
      t.running_name <- prev_name
  | exception e ->
      t.active_resumes <- t.active_resumes - 1;
      t.running_tid <- prev_tid;
      t.running_core <- prev_core;
      t.running_name <- prev_name;
      raise e

(* Dispatch ready threads to idle cores, globally oldest first: each
   step runs the lowest-stamped runnable entry, preserving the
   single-FIFO schedule of a one-queue engine. Every FIFO is in age
   order, so that entry is the older of the unpinned head and the
   oldest head among idle cores' pinned FIFOs (a busy core's pinned
   entries wait; they are never migrated). An unpinned entry runs on its
   home core when idle, otherwise on the first idle core scanning upward
   from it — a steal that migrates and re-homes the thread. Both choices
   are functions of queue contents and core ids alone, so the schedule
   (and every trace derived from it) is reproducible for a given seed
   and core count. *)
let dispatch t =
  let n = Array.length t.core_array in
  let continue = ref true in
  while !continue && t.idle > 0 do
    let best_seq =
      ref
        (if Queue.is_empty t.unpinned then max_int
         else (Queue.peek t.unpinned).seq)
    in
    let best_core = ref (-1) in
    if t.pinned_ready > 0 then
      for c = 0 to n - 1 do
        let q = t.pinned.(c) in
        if (not t.core_array.(c).busy) && not (Queue.is_empty q) then begin
          let s = (Queue.peek q).seq in
          if s < !best_seq then begin
            best_seq := s;
            best_core := c
          end
        end
      done;
    if !best_seq = max_int then continue := false
    else if !best_core >= 0 then begin
      let e = Queue.pop t.pinned.(!best_core) in
      t.pinned_ready <- t.pinned_ready - 1;
      exec t t.core_array.(!best_core) e.thread e.resume
    end
    else begin
      let e = Queue.pop t.unpinned in
      let home = e.thread.home in
      let c = ref home in
      while t.core_array.(!c).busy do
        c := (!c + 1) mod n
      done;
      if !c <> home then begin
        t.steals <- t.steals + 1;
        if Hb.on (bus t) then
          Hb.emit (bus t) (Hb.Steal { tid = e.thread.tid; core = !c })
      end;
      exec t t.core_array.(!c) e.thread e.resume
    end
  done

let enqueue_new t ?name ?affinity body =
  t.next_tid <- t.next_tid + 1;
  let name =
    match name with Some n -> n | None -> Printf.sprintf "t%d" t.next_tid
  in
  let home =
    (* Fresh unpinned threads spread across cores by tid so independent
       workloads (one forker per core) land on distinct queues without
       explicit affinity. *)
    match affinity with
    | Some a -> a
    | None -> t.next_tid mod Array.length t.core_array
  in
  let thread =
    { tid = t.next_tid; name; affinity; finished = false; home;
      cur_core = None }
  in
  t.live <- t.live + 1;
  make_ready t thread (Start body);
  if Hb.on (bus t) then
    Hb.emit (bus t) (Hb.Spawn { parent = t.running_tid; child = thread.tid });
  thread.tid

let spawn ?name ?affinity t body =
  (match affinity with
  | Some a when a < 0 || a >= cores t -> invalid_arg "Engine.spawn: affinity"
  | Some _ | None -> ());
  enqueue_new t ?name ?affinity body

let run ?until t =
  let limit = match until with Some u -> u | None -> Int64.max_int in
  t.until_limit <- limit;
  dispatch t;
  let continue = ref true in
  while !continue && not (Heap.is_empty t.events) do
    if Heap.min_time_exceeds t.events limit then begin
      t.now <- limit;
      continue := false
    end
    else begin
      let e = Heap.pop t.events in
      t.now <- e.Heap.time;
      t.in_event <- true;
      e.Heap.action ();
      t.in_event <- false;
      dispatch t
    end
  done

(* In-thread operations. *)
let advance n = Effect.perform (Advance n)

(* The charging hot path ({!Trace.emit}) calls this before performing the
   {!advance} effect: under exactly the conditions where the effect
   handler's inline fast path would pass time without suspending (sole
   live resume, nothing ready, no heap event at or before the target, no
   [~until] deadline in between), passing time is pure field mutation —
   so skip the continuation capture entirely. [in_event] must already be
   set (it is, for any thread resumed by the run loop or by the inline
   fast path itself), or a [wake] later in the same stretch would
   dispatch immediately where the slow path — which always resumes inside
   an event action — would defer; the boot-time nested-exec case where it
   is not set falls back to the effect. Unlike the handler's inline path
   this consumes no native stack, so no depth cap applies. *)
let advance_direct t n =
  let target = Int64.add t.now n in
  if
    n >= 0L && t.in_event
    && ready_count t = 0
    && t.active_resumes = 1
    && t.running_tid >= 0
    && target <= t.until_limit
    && Heap.min_time_exceeds t.events target
  then begin
    t.advanced <- Int64.add t.advanced n;
    t.now <- target;
    true
  end
  else false
let yield () = Effect.perform Yield
let suspend register = Effect.perform (Suspend register)
let current_time () = Effect.perform Get_time

let waker_pending w = w.target <> None

let waker_tid w =
  match w.target with Some (_, thread, _) -> thread.tid | None -> -1

let wake w =
  match w.target with
  | None -> invalid_arg "Engine.wake: waker already used"
  | Some (t, thread, resume) ->
      w.target <- None;
      t.blocked <- t.blocked - 1;
      if Hb.on (bus t) then
        Hb.emit (bus t) (Hb.Wake { by = t.running_tid; target = thread.tid });
      make_ready t thread resume;
      (* A waker fired outside event processing (e.g. between runs) must
         kick the dispatcher itself; inside, the main loop dispatches after
         the current event completes. *)
      if not t.in_event then dispatch t

let sleep n =
  if n < 0L then invalid_arg "Engine.sleep: negative";
  let t0 = current_time () in
  suspend (fun w ->
      match w.target with
      | Some (t, _, _) -> schedule t (Int64.add t0 n) (fun () -> wake w)
      | None -> assert false)
