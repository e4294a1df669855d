module Api = Ufork_sas.Api
module Engine = Ufork_sim.Engine

type span = {
  id : int;
  parent : int;
  name : string;
  layer : Layer.t;
  tid : int;
  t0_ns : int;
  mutable t1_ns : int;
  sim0 : int64;
  mutable sim1 : int64;
  words0 : float;
  mutable words1 : float;
}

type t = {
  on : bool;
  run_id : string;
  clock : unit -> int;
  words : unit -> float;
  mutable engine : Engine.t option;
  start_ns : int;
  self_ns : int array;
  self_words : float array;
  mutable cur : Layer.t;
  mutable last_ns : int;
  mutable last_words : float;
  mutable end_ns : int;
  stacks : (int, span list) Hashtbl.t;
  bases : (int, Layer.t) Hashtbl.t;  (** A thread's layer outside its spans. *)
  mutable spans : span list;  (** Newest first. *)
  mutable next_id : int;
}

let monotonic_ns () = Int64.to_int (Monotonic_clock.now ())

(* Minor-heap words: [Gc.quick_stat] costs 1.4 us a read, and the
   5.1 runtime's [Gc.counters] can corrupt the heap (its three boxed
   results are not GC roots while the record is allocated). *)
let minor_words = Gc.minor_words

let make ~on ~clock ~words ~run_id =
  let now = clock () in
  let w = words () in
  {
    on;
    run_id;
    clock;
    words;
    engine = None;
    start_ns = now;
    self_ns = Array.make Layer.count 0;
    self_words = Array.make Layer.count 0.;
    cur = Layer.Bench;
    last_ns = now;
    last_words = w;
    end_ns = -1;
    stacks = Hashtbl.create 64;
    bases = Hashtbl.create 64;
    spans = [];
    next_id = 0;
  }

let create ?(clock = monotonic_ns) ?(words = minor_words) ~run_id () =
  make ~on:true ~clock ~words ~run_id

let off =
  make ~on:false ~clock:(fun () -> 0) ~words:(fun () -> 0.) ~run_id:""

let set_engine t e = if t.on then t.engine <- Some e

let tid t =
  match t.engine with Some e -> Engine.running_tid e | None -> -1

let sim_now t = match t.engine with Some e -> Engine.now e | None -> 0L

(* Charge the slice since the previous boundary to the current layer. *)
let boundary t =
  let now = t.clock () in
  let words = t.words () in
  let i = Layer.index t.cur in
  t.self_ns.(i) <- t.self_ns.(i) + (now - t.last_ns);
  t.self_words.(i) <- t.self_words.(i) +. (words -. t.last_words);
  t.last_ns <- now;
  t.last_words <- words;
  (now, words)

let stack t tid = Option.value (Hashtbl.find_opt t.stacks tid) ~default:[]
let base t tid = Option.value (Hashtbl.find_opt t.bases tid) ~default:Layer.Bench

let enter t layer name =
  let now, words = boundary t in
  let tid = tid t in
  let st = stack t tid in
  let s =
    {
      id = t.next_id;
      parent = (match st with p :: _ -> p.id | [] -> -1);
      name;
      layer;
      tid;
      t0_ns = now - t.start_ns;
      t1_ns = -1;
      sim0 = sim_now t;
      sim1 = -1L;
      words0 = words;
      words1 = nan;
    }
  in
  t.next_id <- t.next_id + 1;
  t.spans <- s :: t.spans;
  Hashtbl.replace t.stacks tid (s :: st);
  t.cur <- layer;
  s

let leave t s =
  let now, words = boundary t in
  (match stack t s.tid with
  | top :: rest when top == s ->
      Hashtbl.replace t.stacks s.tid rest;
      t.cur <- (match rest with p :: _ -> p.layer | [] -> base t s.tid)
  | _ -> failwith (Printf.sprintf "tracer: span %S closed out of order" s.name));
  s.t1_ns <- now - t.start_ns;
  s.sim1 <- sim_now t;
  s.words1 <- words

let span t layer name f =
  if not t.on then f ()
  else
    let s = enter t layer name in
    match f () with
    | v ->
        leave t s;
        v
    | exception e ->
        leave t s;
        raise e

let fiber ?(base = Layer.Bench) t f x =
  if not t.on then f x
  else begin
    ignore (boundary t);
    let tid = tid t in
    Hashtbl.replace t.bases tid base;
    t.cur <- base;
    let return () =
      ignore (boundary t);
      Hashtbl.remove t.bases tid;
      t.cur <- Layer.Sas
    in
    match f x with
    | v ->
        return ();
        v
    | exception e ->
        return ();
        raise e
  end

let wrap_api t (api : Api.t) =
  if not t.on then api
  else
    let sp name f = span t Layer.Sas name f in
    let rec wrap (a : Api.t) : Api.t =
      (* A child continuation is code of the layer that forked: Rdb's
         dump closure runs as [apps], the storm loop's as [bench]. *)
      let child body =
        let base = t.cur in
        fiber ~base t (fun capi -> body (wrap capi))
      in
      let fork_like name call body =
        let body = child body in
        sp name (fun () -> call body)
      in
      {
        Api.getpid = (fun () -> sp "getpid" a.Api.getpid);
        fork = fork_like "fork" a.Api.fork;
        exit = (fun st -> sp "exit" (fun () -> a.Api.exit st));
        wait = (fun () -> sp "wait" a.Api.wait);
        spawn = fork_like "spawn" a.Api.spawn;
        kill = (fun pid -> sp "kill" (fun () -> a.Api.kill pid));
        reloc = (fun c -> sp "reloc" (fun () -> a.Api.reloc c));
        malloc = (fun n -> sp "malloc" (fun () -> a.Api.malloc n));
        free = (fun c -> sp "free" (fun () -> a.Api.free c));
        read_bytes =
          (fun c ~off ~len ->
            sp "read_bytes" (fun () -> a.Api.read_bytes c ~off ~len));
        write_bytes =
          (fun c ~off b ->
            sp "write_bytes" (fun () -> a.Api.write_bytes c ~off b));
        read_u64 =
          (fun c ~off -> sp "read_u64" (fun () -> a.Api.read_u64 c ~off));
        write_u64 =
          (fun c ~off v ->
            sp "write_u64" (fun () -> a.Api.write_u64 c ~off v));
        load_cap =
          (fun c ~off -> sp "load_cap" (fun () -> a.Api.load_cap c ~off));
        store_cap =
          (fun c ~off v ->
            sp "store_cap" (fun () -> a.Api.store_cap c ~off v));
        got_set = (fun i c -> sp "got_set" (fun () -> a.Api.got_set i c));
        got_get = (fun i -> sp "got_get" (fun () -> a.Api.got_get i));
        compute = (fun n -> sp "compute" (fun () -> a.Api.compute n));
        now = (fun () -> sp "now" a.Api.now);
        open_ = (fun p m -> sp "open" (fun () -> a.Api.open_ p m));
        close = (fun fd -> sp "close" (fun () -> a.Api.close fd));
        read = (fun fd n -> sp "read" (fun () -> a.Api.read fd n));
        pread =
          (fun fd ~off n -> sp "pread" (fun () -> a.Api.pread fd ~off n));
        write = (fun fd b -> sp "write" (fun () -> a.Api.write fd b));
        rename =
          (fun ~src ~dst -> sp "rename" (fun () -> a.Api.rename ~src ~dst));
        unlink = (fun p -> sp "unlink" (fun () -> a.Api.unlink p));
        pipe = (fun () -> sp "pipe" a.Api.pipe);
        shm_open = (fun n sz -> sp "shm_open" (fun () -> a.Api.shm_open n sz));
        map_library =
          (fun n sz -> sp "map_library" (fun () -> a.Api.map_library n sz));
        stats_private_bytes =
          (fun () -> sp "stats_private_bytes" a.Api.stats_private_bytes);
        stats_heap_used = (fun () -> sp "stats_heap_used" a.Api.stats_heap_used);
        yield = (fun () -> sp "yield" a.Api.yield);
        sleep = (fun d -> sp "sleep" (fun () -> a.Api.sleep d));
      }
    in
    wrap api

let finish t =
  if t.on then begin
    Hashtbl.iter
      (fun tid st ->
        match st with
        | [] -> ()
        | s :: _ ->
            failwith
              (Printf.sprintf "tracer: span %S still open on thread %d" s.name
                 tid))
      t.stacks;
    let now, _ = boundary t in
    t.end_ns <- now
  end

let wall_ns t = if t.end_ns < 0 then 0 else t.end_ns - t.start_ns
let self_ns t l = t.self_ns.(Layer.index l)
let self_words t l = t.self_words.(Layer.index l)
let spans t = List.rev t.spans

let closed_named t name =
  List.filter (fun s -> s.name = name && s.t1_ns >= 0) t.spans

let total_ns t name =
  List.fold_left (fun acc s -> acc + (s.t1_ns - s.t0_ns)) 0 (closed_named t name)

let total_words t name =
  List.fold_left
    (fun acc s -> acc +. (s.words1 -. s.words0))
    0. (closed_named t name)

let to_jsonl t oc =
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"run\":%S,\"id\":%d,\"parent\":%d,\"name\":%S,\"layer\":%S,\
         \"tid\":%d,\"host_t0_ns\":%d,\"host_t1_ns\":%d,\"sim_t0\":%Ld,\
         \"sim_t1\":%Ld,\"minor_words\":%.0f}\n"
        t.run_id s.id s.parent s.name (Layer.name s.layer) s.tid s.t0_ns
        s.t1_ns s.sim0 s.sim1 (s.words1 -. s.words0))
    (spans t)
