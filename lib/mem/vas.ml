module Capability = Ufork_cheri.Capability
module Phys = Phys
module Pte = Pte
module Perms = Ufork_cheri.Perms
module Hb = Ufork_util.Hb

(* Capability traffic through the MMU is the capflow detector's ground
   truth: every user-level cap store/load and every kernel metadata cap
   store/load publishes on the machine's bus. Disarmed cost is a few
   field reads. *)
let publish_cap_store pt ~addr cap =
  let bus = Phys.bus (Page_table.phys pt) in
  if Hb.on bus && Capability.tag cap then
    Hb.emit bus
      (Hb.Cap_store { tid = Hb.tid bus; addr; prov = Capability.prov cap })

let publish_cap_load pt ~addr cap =
  let bus = Phys.bus (Page_table.phys pt) in
  if Hb.on bus && Capability.tag cap then
    Hb.emit bus
      (Hb.Cap_load { tid = Hb.tid bus; addr; prov = Capability.prov cap })

type access = Read | Write | Exec | Cap_load | Cap_store

exception Fault of { vpn : int; addr : int; access : access }

let pp_access ppf = function
  | Read -> Format.pp_print_string ppf "read"
  | Write -> Format.pp_print_string ppf "write"
  | Exec -> Format.pp_print_string ppf "exec"
  | Cap_load -> Format.pp_print_string ppf "cap-load"
  | Cap_store -> Format.pp_print_string ppf "cap-store"

let fault ~vpn ~addr ~access = raise (Fault { vpn; addr; access })

(* MMU permission check for one page. *)
let check_page pt ~addr ~access =
  let vpn = Addr.vpn_of_addr addr in
  match Page_table.lookup pt ~vpn with
  | None -> fault ~vpn ~addr ~access
  | Some pte -> (
      let open Pte in
      match access with
      | Read -> if not pte.read then fault ~vpn ~addr ~access
      | Write -> if not pte.write then fault ~vpn ~addr ~access
      | Exec -> if not pte.exec then fault ~vpn ~addr ~access
      | Cap_load ->
          if not pte.read then fault ~vpn ~addr ~access:Read;
          if pte.cap_load_fault then fault ~vpn ~addr ~access
      | Cap_store -> if not pte.write then fault ~vpn ~addr ~access)

let check_span pt ~addr ~len ~access =
  let last = addr + len - 1 in
  let v0 = Addr.vpn_of_addr addr and v1 = Addr.vpn_of_addr last in
  for v = v0 to v1 do
    check_page pt ~addr:(max addr (Addr.addr_of_vpn v)) ~access
  done

let page_of pt ~addr =
  let vpn = Addr.vpn_of_addr addr in
  match Page_table.lookup pt ~vpn with
  | Some pte -> Phys.page pte.Pte.frame
  | None -> raise Not_found

(* Apply [f page off len] to each page fragment of [addr, addr+len). [pos]
   is the offset of the fragment within the whole access. *)
let iter_fragments ~addr ~len f =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = Addr.page_offset a in
    let n = min (len - !pos) (Addr.page_size - off) in
    f ~frag_addr:a ~off ~pos:!pos ~len:n;
    pos := !pos + n
  done

let read_bytes pt ~via ~addr ~len =
  Capability.check_access via ~perm:Perms.load ~addr ~len;
  if len = 0 then Bytes.create 0
  else begin
    check_span pt ~addr ~len ~access:Read;
    let out = Bytes.create len in
    iter_fragments ~addr ~len (fun ~frag_addr ~off ~pos ~len ->
        Page.blit_out (page_of pt ~addr:frag_addr) ~off out ~pos ~len);
    out
  end

let write_bytes pt ~via ~addr b =
  let len = Bytes.length b in
  Capability.check_access via ~perm:Perms.store ~addr ~len;
  if len > 0 then begin
    check_span pt ~addr ~len ~access:Write;
    iter_fragments ~addr ~len (fun ~frag_addr ~off ~pos ~len ->
        Page.blit_in b ~pos (page_of pt ~addr:frag_addr) ~off ~len)
  end

let read_u64 pt ~via ~addr =
  let b = read_bytes pt ~via ~addr ~len:8 in
  Bytes.get_int64_le b 0

let write_u64 pt ~via ~addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  write_bytes pt ~via ~addr b

let read_u8 pt ~via ~addr =
  let b = read_bytes pt ~via ~addr ~len:1 in
  Char.code (Bytes.get b 0)

let write_u8 pt ~via ~addr v =
  write_bytes pt ~via ~addr (Bytes.make 1 (Char.chr (v land 0xff)))

let require_granule_aligned addr =
  if not (Addr.is_granule_aligned addr) then
    raise
      (Capability.Violation
         (Printf.sprintf "capability access at %#x not 16-byte aligned" addr))

let load_cap pt ~via ~addr =
  require_granule_aligned addr;
  Capability.check_access via
    ~perm:Perms.(union load load_cap)
    ~addr ~len:Addr.granule_size;
  check_page pt ~addr ~access:Cap_load;
  let cap = Page.load_cap (page_of pt ~addr) ~off:(Addr.page_offset addr) in
  publish_cap_load pt ~addr cap;
  cap

let store_cap pt ~via ~addr cap =
  require_granule_aligned addr;
  Capability.check_access via
    ~perm:Perms.(union store store_cap)
    ~addr ~len:Addr.granule_size;
  check_page pt ~addr ~access:Cap_store;
  publish_cap_store pt ~addr cap;
  Page.store_cap (page_of pt ~addr) ~off:(Addr.page_offset addr) cap

let kernel_page pt ~vpn = Phys.page (Page_table.lookup_exn pt ~vpn).Pte.frame

let kernel_read_bytes pt ~addr ~len =
  let out = Bytes.create len in
  iter_fragments ~addr ~len (fun ~frag_addr ~off ~pos ~len ->
      let p = kernel_page pt ~vpn:(Addr.vpn_of_addr frag_addr) in
      Page.blit_out p ~off out ~pos ~len);
  out

let kernel_write_bytes pt ~addr b =
  let len = Bytes.length b in
  iter_fragments ~addr ~len (fun ~frag_addr ~off ~pos ~len ->
      let p = kernel_page pt ~vpn:(Addr.vpn_of_addr frag_addr) in
      Page.blit_in b ~pos p ~off ~len)

let kernel_store_cap pt ~addr cap =
  require_granule_aligned addr;
  let p = kernel_page pt ~vpn:(Addr.vpn_of_addr addr) in
  publish_cap_store pt ~addr cap;
  Page.store_cap p ~off:(Addr.page_offset addr) cap

let kernel_load_cap pt ~addr =
  require_granule_aligned addr;
  let p = kernel_page pt ~vpn:(Addr.vpn_of_addr addr) in
  let cap = Page.load_cap p ~off:(Addr.page_offset addr) in
  publish_cap_load pt ~addr cap;
  cap

let kernel_clear_tags pt ~addr ~len =
  if len > 0 then begin
    let g0 = Addr.align_down addr Addr.granule_size in
    let g1 = Addr.align_down (addr + len - 1) Addr.granule_size in
    let g = ref g0 in
    while !g <= g1 do
      (match Page_table.lookup pt ~vpn:(Addr.vpn_of_addr !g) with
      | Some pte ->
          Page.clear_tag_at (Phys.page pte.Pte.frame)
            ~off:(Addr.page_offset !g)
      | None -> ());
      g := !g + Addr.granule_size
    done
  end
