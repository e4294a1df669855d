module Hb = Ufork_util.Hb

(* Causal trace graph + critical-path analyzer.

   The bus already carries every edge the analysis needs: Spawn and
   Wake from the engine, Contend/Handoff from the lock layer, Steal
   from the dispatcher, Ipi from the trace charger, Span_open/close
   from the span machinery. This module just files them into
   per-thread timelines as they arrive (cheap: one list cons per
   event) and does all graph work offline in {!analyze}, so an armed
   run pays collection cost only.

   The critical path is computed by a backward walk that tiles the
   interval by construction: starting from the anchor at the interval
   end, each step either charges a segment on the current thread down
   to the record that made it runnable, or follows that record's edge
   (wake → the waker, spawn → the parent, timer wake → the same
   thread's sleep). Because every step moves strictly backward in time
   and every emitted segment abuts the previous one, Σ segment cycles
   = interval wall cycles is an invariant of the walk, and the audit
   verifying it catches analyzer bugs, not data properties. *)

type kind =
  | Spawned of int  (* parent tid, -1 for boot *)
  | Blocked
  | Woken of { by : int; handoff_lock : int }  (* handoff_lock -1: plain wake *)
  | Stolen of int  (* destination core *)
  | Contended of { lock : int; holder : int }
  | Ipi_sent of int  (* remote cores interrupted *)

type record = { time : int64; seq : int; kind : kind }

type tstate = {
  mutable recs : record list;  (* newest first *)
  mutable spans : (int64 * int * int) list;
      (* (time, seq, path id): the thread's span path is [path id] from
         this boundary until the next entry; newest first *)
  mutable stack : int list;  (* open span path ids, innermost first *)
  mutable last_contend : (int64 * int) option;  (* contend time, lock id *)
  mutable fork_open : int64 option;  (* pending "fork" span open time *)
}

type wait_total = { mutable w_count : int; mutable w_cycles : int64 }

type t = {
  threads : (int, tstate) Hashtbl.t;
  mutable seq : int;
  mutable now : unit -> int64;
  pending_handoff : (int, int) Hashtbl.t;  (* wakee tid -> lock id *)
  wait_totals : (int, wait_total) Hashtbl.t;  (* lock id -> totals *)
  (* Span-path interning: ids index [path_names], which stores the full
     [;]-joined path (same separator as the flamegraph export). *)
  mutable path_names : string array;
  mutable n_paths : int;
  path_ids : (int * string, int) Hashtbl.t;  (* (parent id, segment) -> id *)
  mutable forks_rev : (int * int64 * int64) list;  (* tid, open, close *)
  mutable events : int;
  mutable horizon : int64;  (* latest timestamp seen on any event *)
}

exception Audit_failure of string

let unattributed = "(unattributed)"

let create () =
  {
    threads = Hashtbl.create 64;
    seq = 0;
    now = (fun () -> 0L);
    pending_handoff = Hashtbl.create 16;
    wait_totals = Hashtbl.create 16;
    path_names = Array.make 64 "";
    n_paths = 0;
    path_ids = Hashtbl.create 64;
    forks_rev = [];
    events = 0;
    horizon = 0L;
  }

let set_now t f = t.now <- f
let events_seen t = t.events
let fork_windows t = List.rev t.forks_rev
let horizon t = t.horizon

let stamp t =
  let now = t.now () in
  if Int64.compare now t.horizon > 0 then t.horizon <- now;
  now

let state t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some s -> s
  | None ->
      let s =
        {
          recs = [];
          spans = [];
          stack = [];
          last_contend = None;
          fork_open = None;
        }
      in
      Hashtbl.add t.threads tid s;
      s

let push t tid kind =
  let s = state t tid in
  t.seq <- t.seq + 1;
  s.recs <- { time = stamp t; seq = t.seq; kind } :: s.recs

let intern_path t ~parent seg =
  match Hashtbl.find_opt t.path_ids (parent, seg) with
  | Some id -> id
  | None ->
      let id = t.n_paths in
      if id = Array.length t.path_names then begin
        let grown = Array.make (2 * id) "" in
        Array.blit t.path_names 0 grown 0 id;
        t.path_names <- grown
      end;
      t.path_names.(id) <-
        (if parent < 0 then seg else t.path_names.(parent) ^ ";" ^ seg);
      t.n_paths <- id + 1;
      Hashtbl.add t.path_ids (parent, seg) id;
      id

let path_name t id = if id < 0 then unattributed else t.path_names.(id)

let wait_total t lock =
  match Hashtbl.find_opt t.wait_totals lock with
  | Some w -> w
  | None ->
      let w = { w_count = 0; w_cycles = 0L } in
      Hashtbl.add t.wait_totals lock w;
      w

let span_boundary t s path =
  t.seq <- t.seq + 1;
  s.spans <- (stamp t, t.seq, path) :: s.spans

let handle t (ev : Hb.event) =
  t.events <- t.events + 1;
  match ev with
  | Hb.Spawn { parent; child } -> push t child (Spawned parent)
  | Hb.Wake { by; target } ->
      let handoff_lock =
        match Hashtbl.find_opt t.pending_handoff target with
        | Some l ->
            Hashtbl.remove t.pending_handoff target;
            l
        | None -> -1
      in
      (if handoff_lock >= 0 then
         let s = state t target in
         match s.last_contend with
         | Some (tc, l) when l = handoff_lock ->
             s.last_contend <- None;
             let w = wait_total t handoff_lock in
             w.w_cycles <- Int64.add w.w_cycles (Int64.sub (t.now ()) tc)
         | Some _ | None -> ());
      push t target (Woken { by; handoff_lock })
  | Hb.Block { tid } -> push t tid Blocked
  | Hb.Contend { tid; lock; holder } ->
      let s = state t tid in
      s.last_contend <- Some (t.now (), lock);
      (wait_total t lock).w_count <- (wait_total t lock).w_count + 1;
      push t tid (Contended { lock; holder })
  | Hb.Handoff { from_ = _; to_; lock } ->
      (* Consumed by the very next Wake of [to_], which the release
         performs immediately after publishing this. *)
      Hashtbl.replace t.pending_handoff to_ lock
  | Hb.Steal { tid; core } -> push t tid (Stolen core)
  | Hb.Ipi { by; remotes } -> push t by (Ipi_sent remotes)
  | Hb.Span_open { tid; name } ->
      let s = state t tid in
      let parent = match s.stack with p :: _ -> p | [] -> -1 in
      let id = intern_path t ~parent name in
      s.stack <- id :: s.stack;
      span_boundary t s id;
      if name = "fork" && s.fork_open = None then s.fork_open <- Some (t.now ())
  | Hb.Span_close { tid; name } ->
      let s = state t tid in
      (match s.stack with
      | _ :: rest ->
          s.stack <- rest;
          span_boundary t s (match rest with p :: _ -> p | [] -> -1)
      | [] -> ());
      if name = "fork" then (
        match s.fork_open with
        | Some t0 ->
            s.fork_open <- None;
            t.forks_rev <- (tid, t0, t.now ()) :: t.forks_rev
        | None -> ())
  | Hb.Acquire _ | Hb.Release _ | Hb.Write _ | Hb.Cap_store _ | Hb.Cap_load _
    ->
      ()

(* {2 Analysis} *)

type seg_kind = Run | Sleep

type segment = {
  s_tid : int;
  s_t0 : int64;
  s_t1 : int64;
  s_kind : seg_kind;
  s_span : string;
}

type chain = {
  c_waiter : int;
  c_holder : int;
  c_lock : string;
  c_cycles : int64;
  c_waiter_span : string;
  c_holder_span : string;
}

type report = {
  r_t0 : int64;
  r_t1 : int64;
  r_anchor : int;
  r_segments : segment list;
  r_chains : chain list;
  r_blame : (string * int64) list;
  r_lock_waits : (string * int * int64) list;
  r_steals : int;
  r_ipis : int;
}

let lock_label id =
  match Hb.lock_name id with
  | Some n -> n
  | None -> Printf.sprintf "lock.anon.%d" id

(* Frozen per-thread view: timeline lists reversed into ascending
   arrays so the walk can binary-search by sequence number (the global
   stamp is consistent with time, so a seq bound is also a time bound). *)
type frozen = { f_recs : record array; f_spans : (int64 * int * int) array }

let freeze t =
  let tbl = Hashtbl.create (Hashtbl.length t.threads) in
  (* Rebuilding one keyed table from another: insertion order is
     invisible to lookups. *)
  (Hashtbl.iter
     (fun tid (s : tstate) ->
       Hashtbl.add tbl tid
         {
           f_recs = Array.of_list (List.rev s.recs);
           f_spans = Array.of_list (List.rev s.spans);
         })
     t.threads [@ufork.order_independent]);
  tbl

let no_frozen = { f_recs = [||]; f_spans = [||] }

let frozen tbl tid =
  Option.value ~default:no_frozen (Hashtbl.find_opt tbl tid)

(* Largest index with seq < bound, or -1. *)
let find_before (recs : record array) bound =
  let lo = ref 0 and hi = ref (Array.length recs) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if recs.(mid).seq < bound then lo := mid + 1 else hi := mid
  done;
  !lo - 1

(* The thread's span path id at [time] (last boundary at or before). *)
let span_at (f : frozen) time =
  let spans = f.f_spans in
  let lo = ref 0 and hi = ref (Array.length spans) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let tm, _, _ = spans.(mid) in
    if Int64.compare tm time <= 0 then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then -1
  else
    let _, _, p = spans.(!lo - 1) in
    p

let analyze t ?anchor ~t0 ~t1 () =
  if Int64.compare t0 t1 > 0 then invalid_arg "Causal.analyze: empty interval";
  let tbl = freeze t in
  let anchor =
    match anchor with
    | Some a -> a
    | None ->
        (* The thread most recently made runnable at or before [t1]:
           the best stand-in for "who was driving at the end". *)
        let best = ref (-1) and best_seq = ref (-1) in
        Hashtbl.iter
          (fun tid (f : frozen) ->
            Array.iter
              (fun r ->
                if Int64.compare r.time t1 <= 0 && r.seq > !best_seq then
                  match r.kind with
                  | Woken _ | Spawned _ | Stolen _ ->
                      best_seq := r.seq;
                      best := tid
                  | Blocked | Contended _ | Ipi_sent _ -> ())
              f.f_recs)
          tbl;
        !best
  in
  let segs = ref [] (* ascending once complete *)
  and chains = ref []
  and steals = ref 0 in
  (* Charge [lo, hi] on [tid], split at span boundaries so every
     sub-segment has one constant enclosing path. Ranges arrive in
     reverse chronological order, so prepending each range's ascending
     sub-list keeps the whole list ascending. *)
  let charge tid kind lo hi =
    if Int64.compare lo hi < 0 then begin
      let f = frozen tbl tid in
      let local = ref [] in
      let cur = ref lo and cur_path = ref (span_at f lo) in
      Array.iter
        (fun (tm, _, p) ->
          if Int64.compare tm lo > 0 && Int64.compare tm hi < 0 then begin
            if Int64.compare tm !cur > 0 then
              local :=
                {
                  s_tid = tid;
                  s_t0 = !cur;
                  s_t1 = tm;
                  s_kind = kind;
                  s_span = path_name t !cur_path;
                }
                :: !local;
            cur := tm;
            cur_path := p
          end
          else if Int64.compare tm lo <= 0 then cur_path := p)
        f.f_spans;
      local :=
        {
          s_tid = tid;
          s_t0 = !cur;
          s_t1 = hi;
          s_kind = kind;
          s_span = path_name t !cur_path;
        }
        :: !local;
      segs := List.rev_append !local !segs
      (* !local is descending; rev_append restores ascending order in
         front of the (later, already ascending) accumulated list *)
    end
  in
  (* Backward walk. [cur_time] is the un-tiled upper bound; [bound] the
     seq of the boundary event, so same-timestamp records on a jump
     target are not re-consumed. *)
  let rec walk tid cur_time bound =
    let f = frozen tbl tid in
    let i = find_before f.f_recs bound in
    if i < 0 then charge tid Run t0 cur_time
    else
      let r = f.f_recs.(i) in
      if Int64.compare r.time cur_time > 0 then
        (* Later than the boundary we are tiling from (e.g. the anchor's
           records continue past the interval end): irrelevant here. *)
        walk tid cur_time r.seq
      else
      match r.kind with
      | Stolen _ ->
          incr steals;
          walk tid cur_time r.seq
      | Ipi_sent _ | Contended _ -> walk tid cur_time r.seq
      | Spawned parent ->
          charge tid Run (max r.time t0) cur_time;
          if Int64.compare r.time t0 <= 0 then ()
          else if parent >= 0 then walk parent r.time r.seq
          else
            (* Spawned from boot: nobody to follow; the remainder of the
               interval predates the thread and is charged as boot run. *)
            charge (-1) Run t0 r.time
      | Woken { by; handoff_lock } ->
          charge tid Run (max r.time t0) cur_time;
          if Int64.compare r.time t0 <= 0 then ()
          else if by >= 0 then begin
            (if handoff_lock >= 0 then
               (* The Contend record sits just below the Block/Woken
                  pair; scan a few entries down for it. *)
               let rec contend j left =
                 if j < 0 || left = 0 then None
                 else
                   match f.f_recs.(j).kind with
                   | Contended { lock; holder = _ } when lock = handoff_lock
                     ->
                       Some f.f_recs.(j).time
                   | _ -> contend (j - 1) (left - 1)
               in
               match contend (i - 1) 4 with
               | Some tc ->
                   chains :=
                     {
                       c_waiter = tid;
                       c_holder = by;
                       c_lock = lock_label handoff_lock;
                       c_cycles = Int64.sub r.time tc;
                       c_waiter_span = path_name t (span_at f tc);
                       c_holder_span =
                         path_name t (span_at (frozen tbl by) r.time);
                     }
                     :: !chains
               | None -> ());
            walk by r.time r.seq
          end
          else begin
            (* Timer or boot wake: the stall itself is the path. Charge
               a sleep segment back to the Block and continue on the
               same thread. *)
            let tb, bseq =
              if i > 0 then
                match f.f_recs.(i - 1).kind with
                | Blocked -> (f.f_recs.(i - 1).time, f.f_recs.(i - 1).seq)
                | _ -> (r.time, r.seq)
              else (r.time, r.seq)
            in
            charge tid Sleep (max tb t0) r.time;
            if Int64.compare tb t0 > 0 then walk tid tb bseq
          end
      | Blocked ->
          (* Anchor picked while blocked (possible for --interval on a
             quiescent tail): the block is the path. *)
          charge tid Sleep (max r.time t0) cur_time;
          if Int64.compare r.time t0 > 0 then walk tid r.time r.seq
  in
  if anchor >= 0 then walk anchor t1 max_int
  else charge (-1) Run t0 t1 (* no timelines at all: one boot segment *);
  let segments = !segs in
  (* {2 Audit}: exact tiling, then exact blame. *)
  let wall = Int64.sub t1 t0 in
  let total =
    List.fold_left
      (fun acc s -> Int64.add acc (Int64.sub s.s_t1 s.s_t0))
      0L segments
  in
  if Int64.compare total wall <> 0 then
    raise
      (Audit_failure
         (Printf.sprintf
            "critical path covers %Ld cycles, interval wall is %Ld" total
            wall));
  (match segments with
  | [] ->
      if Int64.compare wall 0L <> 0 then
        raise (Audit_failure "non-empty interval produced no segments")
  | first :: _ ->
      if Int64.compare first.s_t0 t0 <> 0 then
        raise
          (Audit_failure
             (Printf.sprintf "path starts at %Ld, interval at %Ld"
                first.s_t0 t0));
      let last_t1 =
        List.fold_left
          (fun prev s ->
            if Int64.compare s.s_t0 prev <> 0 then
              raise
                (Audit_failure
                   (Printf.sprintf "gap in path: segment at %Ld after %Ld"
                      s.s_t0 prev));
            s.s_t1)
          first.s_t0 segments
      in
      if Int64.compare last_t1 t1 <> 0 then
        raise
          (Audit_failure
             (Printf.sprintf "path ends at %Ld, interval at %Ld" last_t1 t1)));
  let blame_tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = Int64.sub s.s_t1 s.s_t0 in
      Hashtbl.replace blame_tbl s.s_span
        (Int64.add d
           (Option.value ~default:0L (Hashtbl.find_opt blame_tbl s.s_span))))
    segments;
  let blame =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) blame_tbl []
    |> List.sort (fun (ka, a) (kb, b) ->
           match Int64.compare b a with
           | 0 -> String.compare ka kb
           | n -> n)
  in
  let blamed = List.fold_left (fun acc (_, c) -> Int64.add acc c) 0L blame in
  if Int64.compare blamed total <> 0 then
    raise
      (Audit_failure
         (Printf.sprintf "blamed %Ld cycles, path length is %Ld" blamed
            total));
  let lock_waits =
    Hashtbl.fold
      (fun lock w acc -> (lock_label lock, w.w_count, w.w_cycles) :: acc)
      t.wait_totals []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  let ipis = ref 0 in
  Hashtbl.iter
    (fun _ (f : frozen) ->
      Array.iter
        (fun r ->
          match r.kind with
          | Ipi_sent _
            when Int64.compare r.time t0 >= 0 && Int64.compare r.time t1 <= 0
            ->
              incr ipis
          | _ -> ())
        f.f_recs)
    tbl;
  {
    r_t0 = t0;
    r_t1 = t1;
    r_anchor = anchor;
    r_segments = segments;
    r_chains =
      List.sort (fun a b -> Int64.compare b.c_cycles a.c_cycles) !chains;
    r_blame = blame;
    r_lock_waits = lock_waits;
    r_steals = !steals;
    r_ipis = !ipis;
  }

let analyze_fork t n =
  let windows = fork_windows t in
  match List.nth_opt windows n with
  | None ->
      invalid_arg
        (Printf.sprintf
           "Causal.analyze_fork: fork %d out of range (%d completed)" n
           (List.length windows))
  | Some (tid, t0, t1) -> analyze t ~anchor:tid ~t0 ~t1 ()

let dominant_lock r =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun c ->
      Hashtbl.replace tbl c.c_lock
        (Int64.add c.c_cycles
           (Option.value ~default:0L (Hashtbl.find_opt tbl c.c_lock))))
    r.r_chains;
  (* Sorted, so a tie on cycles resolves by name, never by hash order. *)
  match
    List.sort
      (fun (la, ca) (lb, cb) ->
        match Int64.compare cb ca with 0 -> compare la lb | c -> c)
      (Hashtbl.fold (fun lock cycles acc -> (lock, cycles) :: acc) tbl [])
  with
  | [] -> None
  | best :: _ -> Some best

(* R3 over the whole run: a single lock whose wait edges cover at least
   a fifth of the critical path is a stall, not ordinary contention. *)
let stall_share = 0.2

let lock_stall t =
  let r = analyze t ~t0:0L ~t1:(horizon t) () in
  let wall = Int64.sub r.r_t1 r.r_t0 in
  match dominant_lock r with
  | Some (lock, cycles)
    when Int64.compare wall 0L > 0
         && Int64.to_float cycles /. Int64.to_float wall >= stall_share ->
      [
        {
          Invariant.invariant = Invariant.Lock_stall;
          subject = lock;
          detail =
            Printf.sprintf
              "wait edges on %s account for %Ld of %Ld critical-path cycles \
               (%.1f%%) — a single lock dominates the path"
              lock cycles wall
              (100. *. Int64.to_float cycles /. Int64.to_float wall);
        };
      ]
  | Some _ | None -> []

(* {2 Exports} *)

let pp_report ~top ppf r =
  let wall = Int64.sub r.r_t1 r.r_t0 in
  let pct c =
    if Int64.compare wall 0L = 0 then 0.
    else 100. *. Int64.to_float c /. Int64.to_float wall
  in
  Format.fprintf ppf
    "@[<v>critical path: %Ld cycles over [%Ld, %Ld], anchor thread %d@,\
     %d segments, %d wait chains crossed, %d steals, %d IPI batches@,@,"
    wall r.r_t0 r.r_t1 r.r_anchor
    (List.length r.r_segments)
    (List.length r.r_chains)
    r.r_steals r.r_ipis;
  Format.fprintf ppf "blame by span path:@,";
  List.iter
    (fun (span, c) ->
      Format.fprintf ppf "  %10Ld cycles  %5.1f%%  %s@," c (pct c) span)
    r.r_blame;
  (match r.r_chains with
  | [] -> Format.fprintf ppf "@,no lock waits on the critical path@,"
  | chains ->
      Format.fprintf ppf "@,top wait chains on the path:@,";
      List.iteri
        (fun i c ->
          if i < top then
            Format.fprintf ppf
              "  thread %d waited %Ld cycles on %s held by thread %d \
               (waiter in %s, holder in %s)@,"
              c.c_waiter c.c_cycles c.c_lock c.c_holder c.c_waiter_span
              c.c_holder_span)
        chains);
  (match dominant_lock r with
  (* Per-lock chain cycles are summed across every waiter the walk
     crossed; waits overlap in wall time, so past 100% the honest
     reading is a multiple of the path, not a share of it. *)
  | Some (lock, cycles) when Int64.compare cycles wall <= 0 ->
      Format.fprintf ppf "@,dominant wait edge: %s (%Ld cycles, %.1f%% of path)@]"
        lock cycles (pct cycles)
  | Some (lock, cycles) ->
      Format.fprintf ppf
        "@,dominant wait edge: %s (%Ld wait cycles summed across waiters, \
         %.1fx the path wall)@]"
        lock cycles
        (if Int64.compare wall 0L = 0 then 0.
         else Int64.to_float cycles /. Int64.to_float wall)
  | None -> Format.fprintf ppf "@]")

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json r =
  let b = Buffer.create 4096 in
  let wall = Int64.sub r.r_t1 r.r_t0 in
  Buffer.add_string b
    (Printf.sprintf
       "{\n  \"t0\": %Ld,\n  \"t1\": %Ld,\n  \"wall_cycles\": %Ld,\n  \
        \"anchor\": %d,\n  \"steals\": %d,\n  \"ipis\": %d,\n"
       r.r_t0 r.r_t1 wall r.r_anchor r.r_steals r.r_ipis);
  Buffer.add_string b "  \"blame\": [\n";
  List.iteri
    (fun i (span, c) ->
      Buffer.add_string b
        (Printf.sprintf "    %s{\"span\": \"%s\", \"cycles\": %Ld}"
           (if i = 0 then "" else ",")
           (json_escape span) c))
    r.r_blame;
  Buffer.add_string b "\n  ],\n  \"segments\": [\n";
  List.iteri
    (fun i s ->
      Buffer.add_string b
        (Printf.sprintf
           "    %s{\"tid\": %d, \"t0\": %Ld, \"t1\": %Ld, \"kind\": \
            \"%s\", \"span\": \"%s\"}"
           (if i = 0 then "" else ",")
           s.s_tid s.s_t0 s.s_t1
           (match s.s_kind with Run -> "run" | Sleep -> "sleep")
           (json_escape s.s_span)))
    r.r_segments;
  Buffer.add_string b "\n  ],\n  \"chains\": [\n";
  List.iteri
    (fun i c ->
      Buffer.add_string b
        (Printf.sprintf
           "    %s{\"waiter\": %d, \"holder\": %d, \"lock\": \"%s\", \
            \"cycles\": %Ld, \"waiter_span\": \"%s\", \"holder_span\": \
            \"%s\"}"
           (if i = 0 then "" else ",")
           c.c_waiter c.c_holder (json_escape c.c_lock) c.c_cycles
           (json_escape c.c_waiter_span)
           (json_escape c.c_holder_span)))
    r.r_chains;
  Buffer.add_string b "\n  ],\n  \"lock_waits\": [\n";
  List.iteri
    (fun i (lock, waits, cycles) ->
      Buffer.add_string b
        (Printf.sprintf
           "    %s{\"lock\": \"%s\", \"waits\": %d, \"wait_cycles\": %Ld}"
           (if i = 0 then "" else ",")
           (json_escape lock) waits cycles))
    r.r_lock_waits;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

let to_dot r =
  let b = Buffer.create 4096 in
  Buffer.add_string b "digraph critical_path {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n";
  List.iteri
    (fun i s ->
      Buffer.add_string b
        (Printf.sprintf
           "  n%d [label=\"t%d %s\\n%Ld cycles\\n%s\"%s];\n" i s.s_tid
           (match s.s_kind with Run -> "run" | Sleep -> "sleep")
           (Int64.sub s.s_t1 s.s_t0)
           (json_escape s.s_span)
           (match s.s_kind with
           | Sleep -> ", style=filled, fillcolor=lightyellow"
           | Run -> "")))
    r.r_segments;
  let n = List.length r.r_segments in
  for i = 0 to n - 2 do
    Buffer.add_string b (Printf.sprintf "  n%d -> n%d;\n" i (i + 1))
  done;
  List.iteri
    (fun i c ->
      Buffer.add_string b
        (Printf.sprintf
           "  w%d [label=\"%s\\n%Ld cycles wait\\nt%d -> t%d\", \
            shape=ellipse, style=dashed];\n"
           i (json_escape c.c_lock) c.c_cycles c.c_holder c.c_waiter))
    r.r_chains;
  Buffer.add_string b "}\n";
  Buffer.contents b

let to_chrome r =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i s ->
      Buffer.add_string b
        (Printf.sprintf
           "  %s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \
            \"ts\": %Ld, \"dur\": %Ld, \"pid\": 0, \"tid\": %d}"
           (if i = 0 then "" else ",\n")
           (json_escape s.s_span)
           (match s.s_kind with Run -> "run" | Sleep -> "sleep")
           s.s_t0
           (Int64.sub s.s_t1 s.s_t0)
           s.s_tid))
    r.r_segments;
  Buffer.add_string b "\n]\n";
  Buffer.contents b
