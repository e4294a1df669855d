module Addr = Ufork_mem.Addr
module Page = Ufork_mem.Page
module Phys = Ufork_mem.Phys
module Pte = Ufork_mem.Pte
module Page_table = Ufork_mem.Page_table
module Capability = Ufork_cheri.Capability
module Kernel = Ufork_sas.Kernel
module Uproc = Ufork_sas.Uproc
module Config = Ufork_sas.Config
module Trace = Ufork_sim.Trace

open Invariant

(* One page-table mapping, with enough context to attribute it. *)
type mapping = {
  vpn : int;
  pte : Pte.t;
  table_owner : Uproc.t option;  (* the table's process on multi-AS *)
}

(* Violation subjects are formatted only when [add] records one: a
   healthy sweep touches every frame, mapping and stored capability. *)
let frame_subject fid = Printf.sprintf "frame %d" fid

let mapping_subject owner_area vpn =
  match owner_area with
  | Some (_, _, pid) -> Printf.sprintf "pid %d vpn %#x" pid vpn
  | None -> Printf.sprintf "vpn %#x" vpn

let granule_subject owner_area vpn g =
  Printf.sprintf "%s granule %d" (mapping_subject owner_area vpn) g

let sweep ?(provenance = false) k =
  let phys = Kernel.phys k in
  let multi_as = Kernel.multi_address_space k in
  let isolation_on =
    (Kernel.config k).Config.isolation <> Config.No_isolation
  in
  let violations = ref [] in
  let add invariant subject detail =
    violations := { invariant; subject; detail } :: !violations
  in
  (* The distinct page tables: the one shared table in the SASOS, one per
     process (live, zombie or reaped) on the multi-AS baselines. *)
  let tables =
    Kernel.fold_uprocs k ~init:[] ~f:(fun acc (u : Uproc.t) ->
        if List.exists (fun (pt, _) -> pt == u.Uproc.pt) acc then acc
        else (u.Uproc.pt, u) :: acc)
    |> List.rev
  in
  (* Census: frame id -> every mapping aliasing it, in sweep order. *)
  let census : (int, mapping list) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (pt, owner) ->
      Page_table.fold pt ~init:() ~f:(fun vpn pte () ->
          let m =
            { vpn; pte; table_owner = (if multi_as then Some owner else None) }
          in
          let fid = Phys.id pte.Pte.frame in
          let prev =
            Option.value (Hashtbl.find_opt census fid) ~default:[]
          in
          Hashtbl.replace census fid (m :: prev)))
    tables;
  let mappings_of fid =
    List.rev (Option.value (Hashtbl.find_opt census fid) ~default:[])
  in
  (* Frames the kernel's named-segment tables reference (one kernel
     reference each, on top of any mappings). *)
  let named : (int, string) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (nm, frames) ->
      Array.iter (fun f -> Hashtbl.replace named (Phys.id f) nm) frames)
    (Kernel.named_segment_frames k);
  let areas = Kernel.areas k in
  let area_of_addr addr =
    List.find_opt (fun (b, s, _) -> addr >= b && addr < b + s) areas
  in
  (* pid -> parent pid, for the S10/S11 direction split. *)
  let parent_of : (int, int) Hashtbl.t = Hashtbl.create 16 in
  Kernel.fold_uprocs k ~init:() ~f:(fun () (u : Uproc.t) ->
      match u.Uproc.parent_pid with
      | Some p -> Hashtbl.replace parent_of u.Uproc.pid p
      | None -> ());
  let area_holding_cap cap =
    List.find_opt
      (fun (b, s, _) -> Capability.in_range cap ~lo:b ~hi:(b + s))
      areas
  in

  (* {2 S1, S2, S9: the frame pool} *)
  let live = ref 0 in
  Phys.iter_frames phys (fun f ->
      let fid = Phys.id f in
      let rc = Phys.refcount f in
      let maps = List.length (mappings_of fid) in
      if rc > 0 then begin
        incr live;
        let expected = maps + if Hashtbl.mem named fid then 1 else 0 in
        if rc <> expected then
          add Refcount_mismatch (frame_subject fid)
            (Printf.sprintf
               "refcount %d but %d mapping(s)%s — %s" rc maps
               (if Hashtbl.mem named fid then " + 1 named-segment reference"
                else "")
               (if rc > expected then "leaked reference"
                else "mapping without a reference"))
      end
      else begin
        if maps > 0 then
          add Free_frame_state (frame_subject fid)
            (Printf.sprintf "free (refcount %d) but still mapped %d time(s)"
               rc maps);
        let tags = Page.tagged_count (Phys.page f) in
        if tags > 0 then
          add Free_frame_state (frame_subject fid)
            (Printf.sprintf
               "free but %d granule(s) still hold valid capabilities" tags)
      end);
  if !live <> Phys.frames_in_use phys then
    add Phys_accounting "phys pool"
      (Printf.sprintf "frames_in_use reports %d; census of live frames is %d"
         (Phys.frames_in_use phys) !live);

  (* {2 Per-mapping checks: S3, S4, S5, S6, S8, S10} *)
  List.iter
    (fun (pt, (owner : Uproc.t)) ->
      Page_table.fold pt ~init:() ~f:(fun vpn (pte : Pte.t) () ->
          let addr = Addr.addr_of_vpn vpn in
          let fid = Phys.id pte.Pte.frame in
          let is_named = Hashtbl.mem named fid in
          (* Owner attribution: the area containing the address in the
             single address space; the table's process on multi-AS. *)
          let owner_area =
            if multi_as then
              if
                addr >= owner.Uproc.area_base
                && addr < owner.Uproc.area_base + owner.Uproc.area_bytes
                && owner.Uproc.state <> Uproc.Reaped
              then Some (owner.Uproc.area_base, owner.Uproc.area_bytes,
                         owner.Uproc.pid)
              else None
            else area_of_addr addr
          in
          (* S8: no mapping outside a live-or-zombie process area. *)
          if owner_area = None then
            add Orphan_mapping (mapping_subject owner_area vpn)
              (if multi_as && owner.Uproc.state = Uproc.Reaped then
                 Printf.sprintf "mapping of frame %d survives pid %d's reap"
                   fid owner.Uproc.pid
               else
                 Printf.sprintf
                   "frame %d mapped at %#x, owned by no live or zombie area"
                   fid addr);
          (* S4/S5: share-mode / permission coherence. *)
          (match pte.Pte.share with
          | Pte.Cow_shared when pte.Pte.write ->
              add Cow_writable (mapping_subject owner_area vpn)
                (Printf.sprintf "CoW-shared frame %d mapped writable" fid)
          | Pte.Copa_shared
            when (not pte.Pte.cap_load_fault) || pte.Pte.write ->
              add Share_perms (mapping_subject owner_area vpn)
                (Printf.sprintf
                   "CoPA-shared frame %d: cap_load_fault=%b write=%b \
                    (want trap on cap loads, never write-through)"
                   fid pte.Pte.cap_load_fault pte.Pte.write)
          | Pte.Coa_shared when pte.Pte.read || pte.Pte.write ->
              add Share_perms (mapping_subject owner_area vpn)
                (Printf.sprintf
                   "CoA-shared frame %d: read=%b write=%b (every access \
                    must fault)"
                   fid pte.Pte.read pte.Pte.write)
          | _ -> ());
          (* S6: Shm mappings <-> named-segment frames. *)
          (match pte.Pte.share with
          | Pte.Shm_shared when not is_named ->
              add Shm_coherence (mapping_subject owner_area vpn)
                (Printf.sprintf
                   "Shm_shared mapping of anonymous frame %d (not in any \
                    named segment)"
                   fid)
          | (Pte.Private | Pte.Cow_shared | Pte.Coa_shared | Pte.Copa_shared)
            when is_named ->
              add Shm_coherence (mapping_subject owner_area vpn)
                (Printf.sprintf
                   "named-segment frame %d (%s) mapped %s — deliberate \
                    sharing must never be privately copied"
                   fid (Hashtbl.find named fid)
                   (Format.asprintf "%a" Pte.pp_share pte.Pte.share))
          | _ -> ());
          (* S3/S10: stored capabilities. Only granules a process could
             actually load a capability from: readable, not behind the
             CoPA cap-load trap (those are pending relocation), and not
             deliberate shared memory (windows alias across areas by
             design). *)
          if
            isolation_on && pte.Pte.read
            && (not pte.Pte.cap_load_fault)
            && pte.Pte.share <> Pte.Shm_shared
          then
            match owner_area with
            | None -> () (* reported as S8 above *)
            | Some (base, bytes, opid) ->
                Page.iter_caps (Phys.page pte.Pte.frame) (fun g cap ->
                    if not (Capability.is_sealed cap) then
                      (* R4 (capflow armed): the provenance stamp must
                         match the holding area — the taint diagnosis
                         subsumes the untyped wild-capability report. *)
                      if provenance && Capability.prov cap <> base then
                        add Cap_provenance (granule_subject owner_area vpn g)
                          (Printf.sprintf
                             "stored capability carries %s but sits in \
                              area [%#x..%#x)"
                             (if
                                Capability.prov cap
                                = Capability.root_provenance
                              then "the kernel root's authority"
                              else
                                Printf.sprintf "area %#x's authority"
                                  (Capability.prov cap))
                             base (base + bytes))
                      else if
                        Capability.in_range cap ~lo:base ~hi:(base + bytes)
                      then ()
                      else
                        match
                          if multi_as then None else area_holding_cap cap
                        with
                        | Some (_, _, pid2)
                          when pid2 <> opid
                               && Hashtbl.find_opt parent_of pid2 = Some opid
                          ->
                            (* S11: the reverse-direction fork leak — a
                               parent page still grants authority over
                               its child's area. *)
                            add Parent_child_leak
                              (granule_subject owner_area vpn g)
                              (Printf.sprintf
                                 "parent pid %d stores capability \
                                  [%#x..%#x) into child pid %d's area"
                                 opid (Capability.base cap)
                                 (Capability.limit cap) pid2)
                        | Some (_, _, pid2) when pid2 <> opid ->
                            add Cross_area_cap
                              (granule_subject owner_area vpn g)
                              (Printf.sprintf
                                 "stored capability [%#x..%#x) reaches pid \
                                  %d's area"
                                 (Capability.base cap) (Capability.limit cap)
                                 pid2)
                        | _ ->
                            add Cap_bounds (granule_subject owner_area vpn g)
                              (Printf.sprintf
                                 "stored capability [%#x..%#x) escapes the \
                                  owner area [%#x..%#x)"
                                 (Capability.base cap) (Capability.limit cap)
                                 base (base + bytes)))))
    tables;

  (* {2 S7: aliased frames where every mapping believes it is private} *)
  Phys.iter_frames phys (fun f ->
      let fid = Phys.id f in
      if Phys.refcount f > 0 && not (Hashtbl.mem named fid) then
        match mappings_of fid with
        | [] | [ _ ] -> ()
        | ms when List.for_all (fun m -> m.pte.Pte.share = Pte.Private) ms ->
            add Private_aliased
              (frame_subject fid)
              (Printf.sprintf
                 "mapped %d times (vpns %s) yet every mapping is Private — \
                  a write through one alias would silently leak to the \
                  others"
                 (List.length ms)
                 (String.concat ", "
                    (List.map (fun m -> Printf.sprintf "%#x" m.vpn) ms)))
        | _ -> ());
  List.rev !violations

let sweep_and_lint ?provenance k =
  let trace = Kernel.trace k in
  sweep ?provenance k
  @ Lint.run ~dropped:(Trace.dropped trace) (Trace.records trace)

exception Unsafe of string

let assert_safe ?provenance k =
  match sweep_and_lint ?provenance k with
  | [] -> ()
  | vs -> raise (Unsafe (Invariant.report vs))
