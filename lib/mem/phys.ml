module Hb = Ufork_util.Hb

type frame = { fid : int; mutable refcount : int; page : Page.t }

(* Freed frames return to the releasing core's freelist and are handed
   back out batch-at-a-time: most alloc/release pairs never touch the
   shared pool, which is what lets the sharded kernel keep its
   frame-pool lock off the fork fast path. *)
let refill_batch = 32
let drain_threshold = 2 * refill_batch

type t = {
  bus : Hb.t;
  limit_frames : int option;
  mutable in_use : int;
  mutable peak : int;
  mutable total : int;
  mutable next_id : int;
  mutable next_table_id : int;
  registry : (int, frame) Hashtbl.t;
  local_free : frame list array; (* per-core freelist caches, LIFO *)
  local_len : int array;
  mutable global_free : frame list; (* the shared pool of free frames *)
  mutable refills : int;
  mutable drains : int;
  (* Serializes refill/drain against the shared pool. lib/mem cannot
     depend on lib/sim, so the kernel injects its frame-pool lock here;
     the default runs the transfer unguarded (single-threaded unit
     tests, chaos lockless mode). *)
  mutable pool_guard : (unit -> unit) -> unit;
}

exception Out_of_memory

let create ?(bus = Hb.create ()) ?limit_frames ?(cores = 1) () =
  let cores = max 1 cores in
  {
    bus;
    limit_frames;
    in_use = 0;
    peak = 0;
    total = 0;
    next_id = 0;
    next_table_id = 0;
    registry = Hashtbl.create 1024;
    local_free = Array.make cores [];
    local_len = Array.make cores 0;
    global_free = [];
    refills = 0;
    drains = 0;
    pool_guard = (fun f -> f ());
  }

let set_pool_guard t g = t.pool_guard <- g
let bus t = t.bus

let fresh_table_id t =
  t.next_table_id <- t.next_table_id + 1;
  t.next_table_id

(* Frame state (refcount, pool membership) is shared between every
   thread that forks, faults or exits: publish each mutation so the
   race detector can check that some happens-before edge orders it. *)
let note t fid site =
  if Hb.on t.bus then
    Hb.emit t.bus (Hb.Write { tid = Hb.tid t.bus; loc = Hb.Frame fid; site })

(* The shared global pool behind the per-core freelists is itself shared
   state: every batched refill/drain mutates it, so each transfer is
   published as a plain write to the [Pool] location. Unlike frame
   refcounts (modelled as atomic RMWs), pool transfers are list splices
   that genuinely need a lock — the race detector must see an ordering
   edge between any two. *)
let note_pool t site =
  if Hb.on t.bus then
    Hb.emit t.bus (Hb.Write { tid = Hb.tid t.bus; loc = Hb.Pool; site })

(* The core whose freelist serves the calling thread, read off the
   machine's bus; outside any simulated thread (boot, unit tests)
   everything funnels through slot 0. *)
let core_slot t =
  let c = Hb.core t.bus in
  if c < 0 then 0 else c mod Array.length t.local_free

let refills t = t.refills
let drains t = t.drains

(* Will the next [n]-frame allocation on this thread's core touch the
   shared pool (freelist refill or fresh carve)? The sharded kernel
   takes its frame-pool lock exactly then. *)
let needs_global t n = t.local_len.(core_slot t) < n

let refill t slot =
  let rec take acc len = function
    | f :: rest when len < refill_batch -> take (f :: acc) (len + 1) rest
    | rest ->
        t.global_free <- rest;
        (acc, len)
  in
  t.pool_guard (fun () ->
      match t.global_free with
      | [] -> ()
      | _ ->
          note_pool t "Phys.refill";
          let taken, len = take t.local_free.(slot) t.local_len.(slot)
                             t.global_free in
          t.local_free.(slot) <- taken;
          t.local_len.(slot) <- len;
          t.refills <- t.refills + 1)

let alloc t =
  (match t.limit_frames with
  | Some l when t.in_use >= l -> raise Out_of_memory
  | Some _ | None -> ());
  t.in_use <- t.in_use + 1;
  t.total <- t.total + 1;
  if t.in_use > t.peak then t.peak <- t.in_use;
  let slot = core_slot t in
  if t.local_len.(slot) = 0 then refill t slot;
  let f =
    match t.local_free.(slot) with
    | f :: rest ->
        (* Recycle: a reused frame must be indistinguishable from a
           fresh one (zero bytes, no tags). *)
        t.local_free.(slot) <- rest;
        t.local_len.(slot) <- t.local_len.(slot) - 1;
        Page.clear f.page;
        f.refcount <- 1;
        f
    | [] ->
        t.next_id <- t.next_id + 1;
        let f = { fid = t.next_id; refcount = 1; page = Page.create () } in
        Hashtbl.replace t.registry f.fid f;
        f
  in
  note t f.fid "Phys.alloc";
  f

let retain t f =
  if f.refcount <= 0 then invalid_arg "Phys.retain: frame is free";
  note t f.fid "Phys.retain";
  f.refcount <- f.refcount + 1

let release t f =
  if f.refcount <= 0 then invalid_arg "Phys.release: frame is free";
  note t f.fid "Phys.release";
  f.refcount <- f.refcount - 1;
  if f.refcount = 0 then begin
    t.in_use <- t.in_use - 1;
    (* Reclamation hygiene: a frame returning to the pool must not carry
       valid capabilities — the tag bits are invalidated with the frame
       (what CHERI hardware guarantees on reuse, and what the state
       sanitizer's free-frame invariant checks). *)
    Page.clear_all_tags f.page;
    let slot = core_slot t in
    t.local_free.(slot) <- f :: t.local_free.(slot);
    t.local_len.(slot) <- t.local_len.(slot) + 1;
    if t.local_len.(slot) > drain_threshold then
      t.pool_guard (fun () ->
          (* Batched drain back to the shared pool so one core's churn
             keeps feeding the others. *)
          note_pool t "Phys.drain";
          let rec drop acc len lst =
            if len <= refill_batch then (acc, len, lst)
            else
              match lst with
              | f :: rest -> drop (f :: acc) (len - 1) rest
              | [] -> (acc, len, [])
          in
          let drained, len, kept =
            drop t.global_free t.local_len.(slot) t.local_free.(slot)
          in
          t.global_free <- drained;
          t.local_free.(slot) <- kept;
          t.local_len.(slot) <- len;
          t.drains <- t.drains + 1)
  end

let refcount f = f.refcount
let page f = f.page
let id f = f.fid
let frames_in_use t = t.in_use
let peak_frames t = t.peak
let total_allocated t = t.total

let iter_frames t f =
  let ids = Hashtbl.fold (fun fid _ acc -> fid :: acc) t.registry [] in
  List.iter (fun fid -> f (Hashtbl.find t.registry fid)) (List.sort compare ids)

let chaos_skew_in_use t delta = t.in_use <- t.in_use + delta
