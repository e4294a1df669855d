(* Capflow: the runtime side of the capability-provenance analysis.

   Invariant R4 is the taint property μFork's fork path must preserve
   (§4.2–4.3): every tagged capability reachable in a μprocess's pages
   carries that μprocess's provenance stamp — rebased or freshly minted
   for it — never the kernel root's authority and never a stale parent
   stamp left behind by a skipped relocation. The static mirror is lint
   rule D13 (tools/lint/capflow.ml); the two sides are cross-certified
   by the skip-rebase / heap-smuggle / leak-root chaos injections.

   Three probes, all disarmed to a single bool read:
   - a stream check over the Hb [Cap_store]/[Cap_load] events the MMU
     paths ({!Ufork_mem.Vas}) publish;
   - a fork-completion scan over the child's freshly forked pages
     (hooked into the kernel's fork watch by the workload layer);
   - a sweep clause in {!Checker} ([~provenance:true]) covering pages
     that were relocated lazily after the fork window closed. *)

module Capability = Ufork_cheri.Capability
module Addr = Ufork_mem.Addr
module Page = Ufork_mem.Page
module Phys = Ufork_mem.Phys
module Pte = Ufork_mem.Pte
module Page_table = Ufork_mem.Page_table
module Kernel = Ufork_sas.Kernel
module Uproc = Ufork_sas.Uproc
module Hb = Ufork_util.Hb

let pp_prov ppf prov =
  if prov = Capability.root_provenance then
    Format.pp_print_string ppf "the kernel root's authority"
  else Format.fprintf ppf "area %#x's authority" prov

(* A capability at [addr] is attributable when the address falls in a
   live-or-zombie μprocess area and the page is one that process could
   actually load a capability from: readable, not behind the CoPA
   cap-load trap (pending relocation), and not deliberate shared memory
   (windows alias across areas by design). Mirrors the S3/S10 gate in
   Checker.sweep. *)
let attributable k addr =
  match
    List.find_opt (fun (b, s, _) -> addr >= b && addr < b + s) (Kernel.areas k)
  with
  | None -> None (* kernel metadata outside every μprocess area *)
  | Some (base, _, pid) -> (
      match Kernel.find_uproc k pid with
      | None -> None
      | Some u -> (
          match Page_table.lookup u.Uproc.pt ~vpn:(Addr.vpn_of_addr addr) with
          | Some pte
            when pte.Pte.read
                 && (not pte.Pte.cap_load_fault)
                 && pte.Pte.share <> Pte.Shm_shared ->
              Some (base, pid)
          | _ -> None))

let mismatch ~what ~pid ~addr ~prov ~base =
  {
    Invariant.invariant = Invariant.Cap_provenance;
    subject = Printf.sprintf "pid %d addr %#x" pid addr;
    detail =
      Format.asprintf
        "%s capability carries %a but sits in area %#x — %s" what pp_prov
        prov base
        (if prov = Capability.root_provenance then
           "root authority leaked to a μprocess"
         else "a foreign (stale parent?) authority survived fork");
  }

(* {1 The stream detector} *)

type t = {
  kernel : Kernel.t;
  mutable violations_rev : Invariant.violation list;
  seen : (int * int, unit) Hashtbl.t;  (* (addr, prov) dedup *)
}

let check t ~what ~addr ~prov =
  match attributable t.kernel addr with
  | None -> ()
  | Some (base, pid) ->
      if prov <> base && not (Hashtbl.mem t.seen (addr, prov)) then begin
        Hashtbl.replace t.seen (addr, prov) ();
        t.violations_rev <-
          mismatch ~what ~pid ~addr ~prov ~base :: t.violations_rev
      end

let handle t = function
  | Hb.Cap_store { addr; prov; _ } -> check t ~what:"stored" ~addr ~prov
  | Hb.Cap_load { addr; prov; _ } -> check t ~what:"loaded" ~addr ~prov
  | _ -> ()

let create kernel =
  let t = { kernel; violations_rev = []; seen = Hashtbl.create 64 } in
  Hb.subscribe (Ufork_sim.Engine.bus (Kernel.engine kernel)) (handle t);
  t

let violations t = List.rev t.violations_rev

(* {1 The fork-completion scan} *)

(* Scan every checkable granule of the freshly forked child's area: R4
   demands child provenance on every tagged capability the child can
   reach the moment fork returns — a skipped rebase, a heap-smuggled
   parent capability or a leaked root all surface here, before the
   child runs an instruction. *)
let scan_fork (_k : Kernel.t) ~(child : Uproc.t) =
  let base = child.Uproc.area_base and bytes = child.Uproc.area_bytes in
  let vs = ref [] in
  let v0 = Addr.vpn_of_addr base
  and v1 = Addr.vpn_of_addr (base + bytes - 1) in
  for vpn = v0 to v1 do
    match Page_table.lookup child.Uproc.pt ~vpn with
    | Some pte
      when pte.Pte.read
           && (not pte.Pte.cap_load_fault)
           && pte.Pte.share <> Pte.Shm_shared ->
        Page.iter_caps (Phys.page pte.Pte.frame) (fun g cap ->
            if
              (not (Capability.is_sealed cap))
              && Capability.prov cap <> base
            then
              vs :=
                mismatch ~what:"post-fork"
                  ~pid:child.Uproc.pid
                  ~addr:(Addr.addr_of_vpn vpn + (g * Addr.granule_size))
                  ~prov:(Capability.prov cap) ~base
                :: !vs)
    | _ -> ()
  done;
  List.rev !vs
