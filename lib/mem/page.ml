module Capability = Ufork_cheri.Capability

type t = {
  data : Bytes.t;
  caps : (int, Capability.t) Hashtbl.t; (* granule index -> capability *)
}

let create () =
  { data = Bytes.make Addr.page_size '\000'; caps = Hashtbl.create 8 }

let copy t =
  { data = Bytes.copy t.data; caps = Hashtbl.copy t.caps }

let check_range off len =
  if off < 0 || len < 0 || off + len > Addr.page_size then
    invalid_arg "Page: access out of page bounds"

(* Any raw write into a granule invalidates the capability it may hold. *)
let clear_tags_in t ~off ~len =
  if len > 0 then begin
    let g0 = off / Addr.granule_size in
    let g1 = (off + len - 1) / Addr.granule_size in
    for g = g0 to g1 do
      Hashtbl.remove t.caps g
    done
  end

let check_buffer b pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Page: buffer range out of bounds"

let read_bytes t ~off ~len =
  check_range off len;
  Bytes.sub t.data off len

let blit_out t ~off dst ~pos ~len =
  check_range off len;
  check_buffer dst pos len;
  Bytes.blit t.data off dst pos len

let blit_in src ~pos t ~off ~len =
  check_range off len;
  check_buffer src pos len;
  clear_tags_in t ~off ~len;
  Bytes.blit src pos t.data off len

let write_bytes t ~off b = blit_in b ~pos:0 t ~off ~len:(Bytes.length b)

(* Stored capabilities already mirror their cursor into [data], so one
   byte blit plus the tag table is the whole page. *)
let copy_into ~src ~dst =
  Bytes.blit src.data 0 dst.data 0 Addr.page_size;
  Hashtbl.reset dst.caps;
  (* Table-to-table copy keyed by granule: traversal order cannot leak. *)
  (Hashtbl.iter (fun g cap -> Hashtbl.replace dst.caps g cap)
     src.caps [@ufork.order_independent])

let read_u8 t ~off =
  check_range off 1;
  Char.code (Bytes.get t.data off)

let write_u8 t ~off v =
  check_range off 1;
  clear_tags_in t ~off ~len:1;
  Bytes.set t.data off (Char.chr (v land 0xff))

let read_u64 t ~off =
  check_range off 8;
  Bytes.get_int64_le t.data off

let write_u64 t ~off v =
  check_range off 8;
  clear_tags_in t ~off ~len:8;
  Bytes.set_int64_le t.data off v

let require_aligned off =
  if not (Addr.is_granule_aligned off) then
    invalid_arg "Page: capability access must be 16-byte aligned";
  check_range off Addr.granule_size

let store_cap t ~off cap =
  require_aligned off;
  let g = off / Addr.granule_size in
  (* Mirror the cursor into the raw bytes so integer loads of a stored
     pointer read a sensible address. *)
  Bytes.set_int64_le t.data off (Int64.of_int (Capability.cursor cap));
  if Capability.tag cap then Hashtbl.replace t.caps g cap
  else Hashtbl.remove t.caps g

let load_cap t ~off =
  require_aligned off;
  let g = off / Addr.granule_size in
  match Hashtbl.find_opt t.caps g with
  | Some cap -> cap
  | None ->
      (* The granule holds raw data: the load yields an untagged value. *)
      let raw_cursor = Int64.to_int (Bytes.get_int64_le t.data off) in
      Capability.(clear_tag (with_cursor null raw_cursor))

let clear_tag_at t ~off =
  require_aligned off;
  Hashtbl.remove t.caps (off / Addr.granule_size)

let tag_at t ~off =
  require_aligned (Addr.align_down off Addr.granule_size);
  Hashtbl.mem t.caps (Addr.align_down off Addr.granule_size / Addr.granule_size)

let tagged_granules t =
  Hashtbl.fold (fun g _ acc -> g :: acc) t.caps [] |> List.sort compare

let tagged_count t = Hashtbl.length t.caps
let clear_all_tags t = Hashtbl.reset t.caps

(* Back to the zeroed-fresh-page state: frame reuse from a freelist must
   be indistinguishable from a fresh allocation. *)
let clear t =
  Bytes.fill t.data 0 Addr.page_size '\000';
  Hashtbl.reset t.caps

let iter_caps t f =
  List.iter (fun g -> f g (Hashtbl.find t.caps g)) (tagged_granules t)

let map_caps t f =
  let entries = tagged_granules t in
  List.iter
    (fun g ->
      let c = f (Hashtbl.find t.caps g) in
      let off = g * Addr.granule_size in
      Bytes.set_int64_le t.data off (Int64.of_int (Capability.cursor c));
      if Capability.tag c then Hashtbl.replace t.caps g c
      else Hashtbl.remove t.caps g)
    entries
