module Event = Ufork_sim.Event
module Trace = Ufork_sim.Trace
open Invariant

(* Which protocol a classified fault opens, and what closes it. *)
type fault_kind = Cow | Copa_write | Copa_cap | Coa

type pending = {
  kind : fault_kind;
  opened_at : int64;
  mutable copied : bool;  (* page copy or in-place claim seen *)
  mutable scanned : bool;  (* tag scan seen (relocation) *)
}

type pstate = {
  mutable prev : Event.t option;  (* previous record of this pid *)
  mutable seen : int;
  mutable pending : pending option;
  mutable downgrade_open : bool;  (* fork downgraded PTEs, no shootdown yet *)
}

let is_fault_traffic = function
  | Event.Page_fault | Event.Soft_fault | Event.Cow_write_fault
  | Event.Copa_write_fault | Event.Copa_cap_load_fault
  | Event.Coa_access_fault ->
      true
  | _ -> false

let kind_name = function
  | Cow -> "CoW write"
  | Copa_write -> "CoPA write"
  | Copa_cap -> "CoPA capability-load"
  | Coa -> "CoA access"

let complete p = p.copied && (p.kind <> Copa_cap || p.scanned)

let run ?(dropped = 0) records =
  let violations = ref [] in
  let states : (int, pstate) Hashtbl.t = Hashtbl.create 16 in
  let state pid =
    match Hashtbl.find_opt states pid with
    | Some s -> s
    | None ->
        let s =
          { prev = None; seen = 0; pending = None; downgrade_open = false }
        in
        Hashtbl.add states pid s;
        s
  in
  let add invariant pid t detail =
    violations :=
      { invariant; subject = Printf.sprintf "pid %d @ t=%Ld" pid t; detail }
      :: !violations
  in
  (* An unresolved classified fault, reported when the process faults
     again or the stream ends. *)
  let report_pending pid t (p : pending) =
    let invariant, missing =
      match p.kind with
      | Cow -> (Cow_protocol, "parent copy / in-place claim")
      | Copa_write -> (Copa_protocol, "child copy / in-place claim")
      | Coa -> (Coa_protocol, "child copy / in-place claim")
      | Copa_cap ->
          if not p.copied then (Copa_protocol, "child copy / in-place claim")
          else (Copa_relocation, "tag scan (capability relocation)")
    in
    add invariant pid t
      (Printf.sprintf "%s fault at t=%Ld never saw its %s" (kind_name p.kind)
         p.opened_at missing)
  in
  let classified (r : Trace.record) s kind protocol_inv =
    (* L1/L2/L3 precursor: a classified fault is a refinement of the page
       fault delivered just before it. The first surviving record of a
       pid is exempt when the ring dropped history. *)
    (match s.prev with
    | Some Event.Page_fault -> ()
    | _ when s.seen = 0 && dropped > 0 -> ()
    | _ ->
        add protocol_inv r.Trace.pid r.Trace.t
          (Printf.sprintf "%s fault not preceded by a page-fault delivery"
             (kind_name kind)));
    (match s.pending with
    | Some p when not (complete p) -> report_pending r.Trace.pid r.Trace.t p
    | _ -> ());
    s.pending <-
      Some { kind; opened_at = r.Trace.t; copied = false; scanned = false }
  in
  List.iter
    (fun (r : Trace.record) ->
      if r.Trace.pid >= 0 then begin
        let s = state r.Trace.pid in
        (* L4: between a fork's PTE downgrades and the TLB shootdown that
           publishes them, the parent must generate no fault traffic —
           a fault there means a core ran on stale TLB permissions. *)
        (match r.Trace.event with
        | Event.Fork_fixed -> s.downgrade_open <- true
        | Event.Tlb_shootdown _ -> s.downgrade_open <- false
        | e when s.downgrade_open && is_fault_traffic e ->
            add Tlb_flush_protocol r.Trace.pid r.Trace.t
              (Printf.sprintf
                 "%s inside the fork downgrade window (no TLB shootdown \
                  yet)"
                 (Event.to_key e))
        | _ -> ());
        (match r.Trace.event with
        | Event.Page_fault -> (
            match s.pending with
            | Some p when not (complete p) ->
                report_pending r.Trace.pid r.Trace.t p;
                s.pending <- None
            | _ -> s.pending <- None)
        | Event.Cow_write_fault -> classified r s Cow Cow_protocol
        | Event.Copa_write_fault -> classified r s Copa_write Copa_protocol
        | Event.Copa_cap_load_fault -> classified r s Copa_cap Copa_protocol
        | Event.Coa_access_fault -> classified r s Coa Coa_protocol
        | Event.Page_copy_cow | Event.Cow_claim_in_place -> (
            match s.pending with
            | Some p when p.kind = Cow ->
                p.copied <- true;
                if complete p then s.pending <- None
            | _ -> ())
        | Event.Page_copy_child | Event.Claim_in_place -> (
            match s.pending with
            | Some p when p.kind <> Cow ->
                p.copied <- true;
                if complete p then s.pending <- None
            | _ -> ())
        | Event.Granule_scan _ -> (
            match s.pending with
            | Some p ->
                p.scanned <- true;
                if complete p then s.pending <- None
            | None -> ())
        | _ -> ());
        s.prev <- Some r.Trace.event;
        s.seen <- s.seen + 1
      end)
    records;
  (* The stream ends quiescent (the ring drops oldest records, never the
     tail), so a trailing unresolved fault is real. *)
  let pids = Hashtbl.fold (fun pid _ acc -> pid :: acc) states [] in
  List.iter
    (fun pid ->
      let s = Hashtbl.find states pid in
      match s.pending with
      | Some p when not (complete p) -> report_pending pid p.opened_at p
      | _ -> ())
    (List.sort compare pids);
  List.rev !violations
