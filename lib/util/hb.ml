(* Happens-before instrumentation bus.

   The concurrency layer (engine, locks), the memory kit (frame pool,
   page tables) and the gauge surface publish ordering edges and
   shared-state mutations here; the analyzers in lib/analysis (race,
   lockdep, causal, capflow) subscribe side by side to the bus of the
   machine they check. With no subscriber the publishers pay one field
   read and build no values, so production runs and the golden
   accounting are untouched.

   This module lives at the bottom of the dependency stack (lib/util)
   precisely so that both lib/sim and lib/mem can publish without a
   dependency cycle: the detector, not the publishers, decides what the
   events mean. *)

type loc =
  | Frame of int  (** a physical frame's refcount/pool state, by frame id *)
  | Pte of { table : int; vpn : int }  (** one page-table entry *)
  | Gauge of string  (** a derived-meter gauge key *)
  | Pool  (** the shared global free-frame pool behind the per-core freelists *)

type event =
  | Spawn of { parent : int; child : int }
      (** thread creation: everything the parent did so far
          happens-before everything the child does *)
  | Wake of { by : int; target : int }
      (** a suspended thread resumed by [by] (condition signal, waker
          handoff): the signaller's past happens-before the wakee's
          future *)
  | Acquire of { tid : int; lock : int }
  | Release of { tid : int; lock : int }
  | Write of { tid : int; loc : loc; site : string }
  | Block of { tid : int }
      (** the thread suspended (lock wait, condition wait, sleep); the
          causal analyzer uses this as the wait-segment start *)
  | Contend of { tid : int; lock : int; holder : int }
      (** [tid] found [lock] held by [holder] and is about to suspend;
          emitted just before the matching [Block] *)
  | Handoff of { from_ : int; to_ : int; lock : int }
      (** direct lock-ownership transfer on release: the very next
          [Wake] of [to_] delivers [lock]. A causal edge, not an
          ordering primitive — the detector's ordering comes from the
          Release/Acquire pair. *)
  | Steal of { tid : int; core : int }
      (** work stealing re-homed [tid] onto [core] (emitted by the
          dispatcher, outside any thread context) *)
  | Ipi of { by : int; remotes : int }
      (** a TLB-shootdown batch: [by] interrupts [remotes] remote cores *)
  | Span_open of { tid : int; name : string }
      (** a trace span opened on [tid] (span-boundary hook; [name] is
          the span's own segment, not the full stack path) *)
  | Span_close of { tid : int; name : string }
  | Cap_store of { tid : int; addr : int; prov : int }
      (** a tagged capability with provenance stamp [prov] was stored at
          [addr]; the capflow detector resolves which μprocess area the
          address belongs to and checks the R4 taint invariant *)
  | Cap_load of { tid : int; addr : int; prov : int }
      (** a tagged capability was loaded back out of memory *)

(* One bus per machine: the engine creates it and hands it to the
   publishers it owns (its locks, its frame pool, its trace), so a
   detector subscribed here sees exactly that machine's events. The
   clock readers are plain field reads on the engine; outside any
   simulated thread they return a negative tid/core, which subscribers
   treat as "not a concurrent context". The listener list is the only
   state the hot paths touch when no detector listens. Subscribers are
   delivered to in subscription order. *)

type t = {
  mutable listeners : (event -> unit) list;
  lock_names : (int, string) Hashtbl.t;
      (* Stable resource names for lock ids (the sharded kernel locks
         register here), so race reports and trace exports can name the
         resource a lock protects instead of printing a bare number. *)
  tid : unit -> int;
  core : unit -> int;
  now : unit -> int64;
}

let create ?(tid = fun () -> -1) ?(core = fun () -> -1) ?(now = fun () -> 0L)
    () =
  { listeners = []; lock_names = Hashtbl.create 16; tid; core; now }

let tid t = t.tid ()
let core t = t.core ()
let now t = t.now ()
let on t = match t.listeners with [] -> false | _ :: _ -> true
let set_lock_name t id name = Hashtbl.replace t.lock_names id name
let lock_name t id = Hashtbl.find_opt t.lock_names id

let pp_lock t ppf id =
  match lock_name t id with
  | Some name -> Format.fprintf ppf "%s (lock %d)" name id
  | None -> Format.fprintf ppf "lock %d" id

let subscribe t deliver = t.listeners <- t.listeners @ [ deliver ]
let emit t ev = List.iter (fun deliver -> deliver ev) t.listeners

let pp_loc ppf = function
  | Frame fid -> Format.fprintf ppf "frame %d" fid
  | Pte { table; vpn } -> Format.fprintf ppf "pt%d vpn %#x" table vpn
  | Gauge key -> Format.fprintf ppf "gauge %s" key
  | Pool -> Format.fprintf ppf "pool"
