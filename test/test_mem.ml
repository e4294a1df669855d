(* Tests for tagged memory, physical frames, page tables and the MMU. *)

module Addr = Ufork_mem.Addr
module Page = Ufork_mem.Page
module Phys = Ufork_mem.Phys
module Pte = Ufork_mem.Pte
module Page_table = Ufork_mem.Page_table
module Vas = Ufork_mem.Vas
module Capability = Ufork_cheri.Capability
module Perms = Ufork_cheri.Perms

(* --- Addr --- *)

let test_addr_basics () =
  Alcotest.(check int) "vpn" 3 (Addr.vpn_of_addr (3 * 4096 + 17));
  Alcotest.(check int) "addr of vpn" (3 * 4096) (Addr.addr_of_vpn 3);
  Alcotest.(check int) "offset" 17 (Addr.page_offset (3 * 4096 + 17));
  Alcotest.(check int) "granules" 256 Addr.granules_per_page;
  Alcotest.(check int) "pages for 1 byte" 1 (Addr.bytes_to_pages 1);
  Alcotest.(check int) "pages for 4096" 1 (Addr.bytes_to_pages 4096);
  Alcotest.(check int) "pages for 4097" 2 (Addr.bytes_to_pages 4097);
  Alcotest.(check int) "span none" 0 (Addr.pages_spanned ~addr:0 ~len:0);
  Alcotest.(check int) "span crossing" 2
    (Addr.pages_spanned ~addr:4090 ~len:10)

let prop_align =
  QCheck.Test.make ~name:"align_up/down sandwich" ~count:300
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 6))
    (fun (v, k) ->
      let a = 1 lsl (k + 1) in
      let up = Addr.align_up v a and down = Addr.align_down v a in
      down <= v && v <= up && up - down < a + a && up mod a = 0
      && down mod a = 0)

(* --- Page --- *)

let mk_cap ?(base = 0x4000) ?(len = 64) () =
  Capability.mint ~parent:(Capability.root ()) ~base ~length:len
    ~perms:Perms.user_data

let test_page_rw () =
  let p = Page.create () in
  Page.write_bytes p ~off:100 (Bytes.of_string "hello");
  Alcotest.(check string) "readback" "hello"
    (Bytes.to_string (Page.read_bytes p ~off:100 ~len:5));
  Page.write_u64 p ~off:200 0x1122334455667788L;
  Alcotest.(check int64) "u64" 0x1122334455667788L (Page.read_u64 p ~off:200);
  Page.write_u8 p ~off:0 0x1ff;
  Alcotest.(check int) "u8 masked" 0xff (Page.read_u8 p ~off:0)

let test_page_bounds () =
  let p = Page.create () in
  Alcotest.check_raises "oob" (Invalid_argument "Page: access out of page bounds")
    (fun () -> ignore (Page.read_bytes p ~off:4090 ~len:10))

let test_page_cap_roundtrip () =
  let p = Page.create () in
  let c = mk_cap () in
  Page.store_cap p ~off:32 c;
  Alcotest.(check bool) "tag set" true (Page.tag_at p ~off:32);
  let c' = Page.load_cap p ~off:32 in
  Alcotest.(check bool) "equal" true (Capability.equal c c');
  (* The raw bytes mirror the cursor. *)
  Alcotest.(check int64) "cursor mirrored" (Int64.of_int (Capability.cursor c))
    (Page.read_u64 p ~off:32)

let test_page_tag_clear_on_write () =
  let p = Page.create () in
  Page.store_cap p ~off:16 (mk_cap ());
  (* Any raw byte store overlapping the granule clears the tag. *)
  Page.write_u8 p ~off:20 7;
  Alcotest.(check bool) "tag cleared" false (Page.tag_at p ~off:16);
  let c = Page.load_cap p ~off:16 in
  Alcotest.(check bool) "load yields untagged" false (Capability.tag c)

let test_page_tag_clear_edge () =
  let p = Page.create () in
  Page.store_cap p ~off:16 (mk_cap ());
  Page.store_cap p ~off:48 (mk_cap ());
  (* A write spanning [15..17) touches granules 0 and 1 only. *)
  Page.write_bytes p ~off:15 (Bytes.make 2 'x');
  Alcotest.(check bool) "granule 1 cleared" false (Page.tag_at p ~off:16);
  Alcotest.(check bool) "granule 3 untouched" true (Page.tag_at p ~off:48)

let test_page_store_untagged_clears () =
  let p = Page.create () in
  Page.store_cap p ~off:0 (mk_cap ());
  Page.store_cap p ~off:0 (Capability.clear_tag (mk_cap ()));
  Alcotest.(check bool) "cleared" false (Page.tag_at p ~off:0)

let test_page_alignment () =
  let p = Page.create () in
  Alcotest.check_raises "unaligned"
    (Invalid_argument "Page: capability access must be 16-byte aligned")
    (fun () -> Page.store_cap p ~off:8 (mk_cap ()))

let test_page_copy_deep () =
  let p = Page.create () in
  Page.store_cap p ~off:64 (mk_cap ());
  Page.write_bytes p ~off:0 (Bytes.of_string "abc");
  let q = Page.copy p in
  Page.write_bytes q ~off:0 (Bytes.of_string "xyz");
  Page.write_u8 q ~off:64 0 (* clears tag in q only *);
  Alcotest.(check string) "p data intact" "abc"
    (Bytes.to_string (Page.read_bytes p ~off:0 ~len:3));
  Alcotest.(check bool) "p tag intact" true (Page.tag_at p ~off:64);
  Alcotest.(check bool) "q tag cleared" false (Page.tag_at q ~off:64)

let test_page_iter_map_caps () =
  let p = Page.create () in
  Page.store_cap p ~off:0 (mk_cap ~base:0x1000 ());
  Page.store_cap p ~off:240 (mk_cap ~base:0x2000 ());
  Alcotest.(check int) "count" 2 (Page.tagged_count p);
  Alcotest.(check (list int)) "granules" [ 0; 15 ] (Page.tagged_granules p);
  Page.map_caps p (fun c -> Capability.rebase c ~delta:0x100);
  let c = Page.load_cap p ~off:0 in
  Alcotest.(check int) "relocated" 0x1100 (Capability.base c)

let prop_page_write_preserves_other_bytes =
  QCheck.Test.make ~name:"page writes localized" ~count:200
    QCheck.(pair (int_range 0 4000) (string_of_size Gen.(1 -- 64)))
    (fun (off, s) ->
      QCheck.assume (off + String.length s <= 4096);
      let p = Page.create () in
      Page.write_bytes p ~off (Bytes.of_string s);
      (* Bytes before and after are still zero. *)
      (off = 0 || Page.read_u8 p ~off:(off - 1) = 0)
      && (off + String.length s >= 4096
         || Page.read_u8 p ~off:(off + String.length s) = 0)
      && Bytes.to_string (Page.read_bytes p ~off ~len:(String.length s)) = s)

(* The zero-copy byte path: blit_in/blit_out are write_bytes/read_bytes
   without the temporary, tag clearing included. Both pages start with
   the same capabilities in every fourth granule so overlaps show. *)
let tagged_page () =
  let p = Page.create () in
  for g = 0 to Addr.granules_per_page - 1 do
    if g mod 4 = 0 then
      Page.store_cap p ~off:(g * 16) (mk_cap ~base:(g * 16) ())
  done;
  p

let page_bytes p = Bytes.to_string (Page.read_bytes p ~off:0 ~len:4096)

let prop_page_blit_matches_bytes =
  QCheck.Test.make ~name:"page blit_in/blit_out = write_bytes/read_bytes"
    ~count:300
    QCheck.(
      triple (int_range 0 4095) (int_range 0 64)
        (string_of_size Gen.(0 -- 300)))
    (fun (off, pos, s) ->
      let pos = min pos (String.length s) in
      let len = String.length s - pos in
      QCheck.assume (off + len <= 4096);
      let src = Bytes.of_string s in
      let a = tagged_page () and b = tagged_page () in
      Page.write_bytes a ~off (Bytes.sub src pos len);
      Page.blit_in src ~pos b ~off ~len;
      let out = Bytes.make (len + 7) '#' in
      Page.blit_out b ~off out ~pos:7 ~len;
      page_bytes a = page_bytes b
      && Page.tagged_granules a = Page.tagged_granules b
      && Bytes.sub_string out 7 len
         = Bytes.to_string (Page.read_bytes a ~off ~len)
      && Bytes.sub_string out 0 7 = "#######")

let test_page_blit_bounds () =
  let p = tagged_page () in
  let oob = Invalid_argument "Page: buffer range out of bounds" in
  Alcotest.check_raises "blit_out past the buffer" oob (fun () ->
      Page.blit_out p ~off:0 (Bytes.create 8) ~pos:4 ~len:8);
  Alcotest.check_raises "blit_in past the page"
    (Invalid_argument "Page: access out of page bounds") (fun () ->
      Page.blit_in (Bytes.create 32) ~pos:0 p ~off:4080 ~len:32);
  (* A rejected blit_in changes nothing, tags included. *)
  Alcotest.check_raises "blit_in past the buffer" oob (fun () ->
      Page.blit_in (Bytes.create 8) ~pos:0 p ~off:0 ~len:16);
  Alcotest.(check bool) "tag survives a rejected blit" true
    (Page.tag_at p ~off:0)

let test_page_copy_into () =
  let src = Page.create () in
  Page.write_bytes src ~off:100 (Bytes.of_string "payload");
  Page.store_cap src ~off:32 (mk_cap ~base:0x1000 ());
  Page.store_cap src ~off:4080 (mk_cap ~base:0x2000 ());
  let dst = tagged_page () in
  let src_bytes = page_bytes src and src_tags = Page.tagged_granules src in
  Page.copy_into ~src ~dst;
  Alcotest.(check string) "bytes copied" src_bytes (page_bytes dst);
  Alcotest.(check (list int)) "dst tags replaced by src's" [ 2; 255 ]
    (Page.tagged_granules dst);
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (Printf.sprintf "granule %d cap equal" g)
        true
        (Capability.equal
           (Page.load_cap src ~off:(g * 16))
           (Page.load_cap dst ~off:(g * 16))))
    src_tags;
  Alcotest.(check string) "src bytes untouched" src_bytes (page_bytes src);
  Alcotest.(check (list int)) "src tags untouched" src_tags
    (Page.tagged_granules src);
  (* The copies are independent afterwards. *)
  Page.write_u8 dst ~off:32 1;
  Alcotest.(check bool) "src tag independent" true (Page.tag_at src ~off:32)

(* Words allocated by [f]: minor plus major minus what was promoted
   (which would otherwise count twice). [Gc.minor_words] is read
   directly because on OCaml 5 the minor count in [Gc.quick_stat] only
   moves at a minor collection. *)
let allocations f =
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  f ();
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  let direct_major = major1 -. major0 -. (promoted1 -. promoted0) in
  (int_of_float (minor1 -. minor0 +. direct_major), int_of_float direct_major)

let allocated_words f = fst (allocations f)

(* Blocks too large for the minor heap, such as a 4 KiB page temporary
   (513 words), go straight to the major heap: copying a page must put
   nothing there. *)
let test_page_copy_into_alloc () =
  let src = tagged_page () and dst = tagged_page () in
  let _, direct_major = allocations (fun () -> Page.copy_into ~src ~dst) in
  Alcotest.(check int) "words allocated in the major heap" 0 direct_major

(* --- Phys --- *)

let test_phys_refcount () =
  let t = Phys.create () in
  let f = Phys.alloc t in
  Alcotest.(check int) "rc 1" 1 (Phys.refcount f);
  Phys.retain t f;
  Alcotest.(check int) "rc 2" 2 (Phys.refcount f);
  Phys.release t f;
  Alcotest.(check int) "in use" 1 (Phys.frames_in_use t);
  Phys.release t f;
  Alcotest.(check int) "freed" 0 (Phys.frames_in_use t);
  Alcotest.check_raises "double free"
    (Invalid_argument "Phys.release: frame is free") (fun () ->
      Phys.release t f)

let test_phys_limit () =
  let t = Phys.create ~limit_frames:2 () in
  let _ = Phys.alloc t and _ = Phys.alloc t in
  Alcotest.check_raises "oom" Phys.Out_of_memory (fun () ->
      ignore (Phys.alloc t))

let test_phys_peak () =
  let t = Phys.create () in
  let a = Phys.alloc t and b = Phys.alloc t in
  Phys.release t a;
  let _ = Phys.alloc t in
  Alcotest.(check int) "peak" 2 (Phys.peak_frames t);
  Alcotest.(check int) "total" 3 (Phys.total_allocated t);
  Phys.release t b

(* --- Page_table --- *)

let test_pt_map_unmap () =
  let phys = Phys.create () in
  let pt = Page_table.create phys in
  let f = Phys.alloc phys in
  Page_table.map pt ~vpn:10 (Pte.make f);
  Alcotest.(check bool) "mapped" true (Page_table.is_mapped pt ~vpn:10);
  Alcotest.(check int) "count" 1 (Page_table.mapped_count pt);
  (match Page_table.lookup pt ~vpn:10 with
  | Some pte -> Alcotest.(check int) "frame" (Phys.id f) (Phys.id pte.Pte.frame)
  | None -> Alcotest.fail "lookup");
  Page_table.unmap pt ~vpn:10;
  Alcotest.(check int) "frame released" 0 (Phys.frames_in_use phys)

let test_pt_double_map () =
  let phys = Phys.create () in
  let pt = Page_table.create phys in
  Page_table.map pt ~vpn:1 (Pte.make (Phys.alloc phys));
  Alcotest.check_raises "double map"
    (Invalid_argument "Page_table.map: vpn 0x1 already mapped") (fun () ->
      Page_table.map pt ~vpn:1 (Pte.make (Phys.alloc phys)))

let test_pt_share_and_replace () =
  let phys = Phys.create () in
  let pt1 = Page_table.create phys and pt2 = Page_table.create phys in
  let f = Phys.alloc phys in
  Page_table.map pt1 ~vpn:5 (Pte.make f);
  Page_table.map_shared pt2 ~vpn:5 (Pte.make ~write:false f);
  Alcotest.(check int) "shared rc" 2 (Phys.refcount f);
  (* CoW resolution: point pt2 at a fresh frame. *)
  let fresh = Phys.alloc phys in
  Page_table.replace_frame pt2 ~vpn:5 fresh;
  Alcotest.(check int) "old rc dropped" 1 (Phys.refcount f);
  (match Page_table.lookup pt2 ~vpn:5 with
  | Some pte -> Alcotest.(check int) "new frame" (Phys.id fresh) (Phys.id pte.Pte.frame)
  | None -> Alcotest.fail "lookup")

let test_pt_range_ops () =
  let phys = Phys.create () in
  let pt = Page_table.create phys in
  List.iter
    (fun v -> Page_table.map pt ~vpn:v (Pte.make (Phys.alloc phys)))
    [ 2; 3; 5 ];
  let seen = ref [] in
  Page_table.iter_range pt ~vpn:0 ~count:10 (fun v _ -> seen := v :: !seen);
  Alcotest.(check (list int)) "ascending with holes" [ 2; 3; 5 ]
    (List.rev !seen);
  Page_table.unmap_range pt ~vpn:0 ~count:4;
  Alcotest.(check int) "only vpn 5 left" 1 (Page_table.mapped_count pt)

let test_pt_unmap_range_holes () =
  let phys = Phys.create () in
  let pt = Page_table.create phys in
  (* A range with no mappings at all is a no-op, not an error. *)
  Page_table.unmap_range pt ~vpn:0 ~count:16;
  List.iter
    (fun v -> Page_table.map pt ~vpn:v (Pte.make (Phys.alloc phys)))
    [ 1; 4; 9 ];
  Alcotest.(check int) "three live" 3 (Phys.frames_in_use phys);
  (* [0,5) covers vpns 1 and 4 plus three holes. *)
  Page_table.unmap_range pt ~vpn:0 ~count:5;
  Alcotest.(check int) "two released" 1 (Phys.frames_in_use phys);
  Alcotest.(check bool) "vpn 9 untouched" true (Page_table.is_mapped pt ~vpn:9);
  Page_table.unmap_range pt ~vpn:9 ~count:1;
  Alcotest.(check int) "all released" 0 (Phys.frames_in_use phys)

let test_pt_remap_after_unmap () =
  let phys = Phys.create () in
  let pt = Page_table.create phys in
  Page_table.map pt ~vpn:7 (Pte.make (Phys.alloc phys));
  Page_table.unmap pt ~vpn:7;
  (* The slot is free again: mapping it a second time must not raise. *)
  Page_table.map pt ~vpn:7 (Pte.make (Phys.alloc phys));
  Alcotest.(check int) "one mapping" 1 (Page_table.mapped_count pt);
  Alcotest.(check int) "one frame" 1 (Phys.frames_in_use phys)

let test_pt_replace_keeps_other_aliases () =
  (* replace_frame hands the refcount over: the old frame survives as
     long as other tables still alias it. *)
  let phys = Phys.create () in
  let pt1 = Page_table.create phys and pt2 = Page_table.create phys in
  let f = Phys.alloc phys in
  Page_table.map pt1 ~vpn:3 (Pte.make f);
  Page_table.map_shared pt2 ~vpn:3 (Pte.make ~write:false f);
  Page_table.map_shared pt1 ~vpn:8 (Pte.make ~write:false f);
  Alcotest.(check int) "three aliases" 3 (Phys.refcount f);
  Page_table.replace_frame pt2 ~vpn:3 (Phys.alloc phys);
  Alcotest.(check int) "two aliases left" 2 (Phys.refcount f);
  Page_table.unmap pt1 ~vpn:3;
  Page_table.unmap pt1 ~vpn:8;
  (* Only pt2's replacement frame remains live. *)
  Alcotest.(check int) "replacement survives" 1 (Phys.frames_in_use phys)

let test_pt_shared_alias_counts () =
  (* map_shared retains once per alias and unmap releases symmetrically,
     so the frame frees exactly when the last alias goes. *)
  let phys = Phys.create () in
  let pt = Page_table.create phys in
  let f = Phys.alloc phys in
  Page_table.map pt ~vpn:1 (Pte.make f);
  List.iter
    (fun v -> Page_table.map_shared pt ~vpn:v (Pte.make ~write:false f))
    [ 2; 3; 4 ];
  Alcotest.(check int) "four aliases" 4 (Phys.refcount f);
  Alcotest.(check int) "one frame backs them" 1 (Phys.frames_in_use phys);
  List.iter (fun v -> Page_table.unmap pt ~vpn:v) [ 1; 2; 3 ];
  Alcotest.(check int) "last alias holds it" 1 (Phys.frames_in_use phys);
  Alcotest.(check int) "rc 1" 1 (Phys.refcount f);
  Page_table.unmap pt ~vpn:4;
  Alcotest.(check int) "freed with last alias" 0 (Phys.frames_in_use phys)

let test_pt_map_range () =
  let phys = Phys.create () in
  let pt = Page_table.create phys in
  (* Pre-existing mappings survive a range fill untouched. *)
  let keep = Phys.alloc phys in
  Page_table.map pt ~vpn:3 (Pte.make keep);
  let offered = ref [] in
  let installed =
    Page_table.map_range pt ~vpn:1 ~count:5 (fun v ->
        offered := v :: !offered;
        if v = 4 then None else Some (Pte.make (Phys.alloc phys)))
  in
  Alcotest.(check int) "installed = offered minus declined" 3 installed;
  (* vpn 3 was already mapped: never passed to f. *)
  Alcotest.(check (list int)) "holes offered ascending" [ 1; 2; 4; 5 ]
    (List.rev !offered);
  Alcotest.(check bool) "declined vpn stays unmapped" false
    (Page_table.is_mapped pt ~vpn:4);
  (match Page_table.lookup pt ~vpn:3 with
  | Some pte ->
      Alcotest.(check int) "existing frame kept" (Phys.id keep)
        (Phys.id pte.Pte.frame)
  | None -> Alcotest.fail "vpn 3 lost");
  Alcotest.(check int) "refcount discipline" 4 (Phys.frames_in_use phys)

let test_pt_fold_range () =
  let phys = Phys.create () in
  let pt = Page_table.create phys in
  List.iter
    (fun v -> Page_table.map pt ~vpn:v (Pte.make (Phys.alloc phys)))
    [ 2; 3; 5; 40 ];
  let seen =
    Page_table.fold_range pt ~vpn:0 ~count:10 ~init:[] ~f:(fun v _ acc ->
        v :: acc)
  in
  Alcotest.(check (list int)) "ascending, holes skipped, range bounded"
    [ 2; 3; 5 ] (List.rev seen);
  Alcotest.(check int) "empty range" 0
    (Page_table.fold_range pt ~vpn:6 ~count:30 ~init:0 ~f:(fun _ _ n -> n + 1))

(* map_range over a random hole pattern agrees with per-vpn map: same
   final mapped set, and the return value counts exactly the holes. *)
let prop_pt_map_range_fills_holes =
  QCheck.Test.make ~name:"map_range fills exactly the holes" ~count:200
    QCheck.(pair (list_of_size Gen.(0 -- 12) (int_range 0 15)) (int_range 0 8))
    (fun (pre, vpn0) ->
      let count = 8 in
      let phys = Phys.create () in
      let pt = Page_table.create phys in
      List.iter
        (fun v ->
          if not (Page_table.is_mapped pt ~vpn:v) then
            Page_table.map pt ~vpn:v (Pte.make (Phys.alloc phys)))
        pre;
      let before = Page_table.mapped_count pt in
      let holes =
        List.filter
          (fun v -> not (Page_table.is_mapped pt ~vpn:v))
          (List.init count (fun i -> vpn0 + i))
      in
      let installed =
        Page_table.map_range pt ~vpn:vpn0 ~count (fun _ ->
            Some (Pte.make (Phys.alloc phys)))
      in
      installed = List.length holes
      && Page_table.mapped_count pt = before + installed
      && List.for_all (fun v -> Page_table.is_mapped pt ~vpn:v) holes)

(* fold_range is fold restricted to the window. *)
let prop_pt_fold_range_matches_fold =
  QCheck.Test.make ~name:"fold_range = fold restricted to range" ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 12) (int_range 0 31))
        (int_range 0 31) (int_range 0 16))
    (fun (vpns, vpn0, count) ->
      let phys = Phys.create () in
      let pt = Page_table.create phys in
      List.iter
        (fun v ->
          if not (Page_table.is_mapped pt ~vpn:v) then
            Page_table.map pt ~vpn:v (Pte.make (Phys.alloc phys)))
        vpns;
      let ranged =
        Page_table.fold_range pt ~vpn:vpn0 ~count ~init:[] ~f:(fun v _ acc ->
            v :: acc)
      in
      let whole =
        Page_table.fold pt ~init:[] ~f:(fun v _ acc ->
            if v >= vpn0 && v < vpn0 + count then v :: acc else acc)
      in
      ranged = whole)

(* --- Vas --- *)

let setup_vas () =
  let phys = Phys.create () in
  let pt = Page_table.create phys in
  (* Map vpns 1 and 2 rw; vpn 3 read-only; vpn 4 with cap-load fault. *)
  Page_table.map pt ~vpn:1 (Pte.make (Phys.alloc phys));
  Page_table.map pt ~vpn:2 (Pte.make (Phys.alloc phys));
  Page_table.map pt ~vpn:3 (Pte.make ~write:false (Phys.alloc phys));
  Page_table.map pt ~vpn:4 (Pte.make ~cap_load_fault:true (Phys.alloc phys));
  let via =
    Capability.mint ~parent:(Capability.root ()) ~base:4096 ~length:(4 * 4096)
      ~perms:Perms.user_data
  in
  (pt, via)

let test_vas_rw_cross_page () =
  let pt, via = setup_vas () in
  let s = String.init 100 (fun i -> Char.chr (i mod 256)) in
  (* Write crossing the vpn1/vpn2 boundary. *)
  Vas.write_bytes pt ~via ~addr:(2 * 4096 - 50) (Bytes.of_string s);
  Alcotest.(check string) "cross-page roundtrip" s
    (Bytes.to_string (Vas.read_bytes pt ~via ~addr:(2 * 4096 - 50) ~len:100))

let test_vas_u64 () =
  let pt, via = setup_vas () in
  Vas.write_u64 pt ~via ~addr:5000 77L;
  Alcotest.(check int64) "u64" 77L (Vas.read_u64 pt ~via ~addr:5000)

let expect_fault access f =
  match f () with
  | exception Vas.Fault { access = a; _ } when a = access -> ()
  | exception Vas.Fault { access = a; _ } ->
      Alcotest.fail
        (Format.asprintf "wrong fault: %a (expected %a)" Vas.pp_access a
           Vas.pp_access access)
  | _ -> Alcotest.fail "expected fault"

let test_vas_write_fault_on_ro () =
  let pt, via = setup_vas () in
  expect_fault Vas.Write (fun () ->
      Vas.write_bytes pt ~via ~addr:(3 * 4096) (Bytes.of_string "x"))

let test_vas_unmapped_fault () =
  let pt, via = setup_vas () in
  ignore via;
  let via5 =
    Capability.mint ~parent:(Capability.root ()) ~base:(5 * 4096) ~length:64
      ~perms:Perms.user_data
  in
  expect_fault Vas.Read (fun () ->
      ignore (Vas.read_bytes pt ~via:via5 ~addr:(5 * 4096) ~len:1))

let test_vas_cap_load_fault_bit () =
  let pt, via = setup_vas () in
  let c = mk_cap () in
  (* Store through vpn 1 (no fault bit), load back fine. *)
  Vas.store_cap pt ~via ~addr:(4096 + 16) c;
  Alcotest.(check bool) "roundtrip" true
    (Capability.equal c (Vas.load_cap pt ~via ~addr:(4096 + 16)));
  (* vpn 4 has the CoPA bit: data reads fine, capability loads fault. *)
  ignore (Vas.read_bytes pt ~via ~addr:(4 * 4096) ~len:16);
  expect_fault Vas.Cap_load (fun () ->
      ignore (Vas.load_cap pt ~via ~addr:(4 * 4096)))

let test_vas_cap_checks_dominate () =
  (* The capability check fires before the MMU lookup. *)
  let pt, _ = setup_vas () in
  let narrow =
    Capability.mint ~parent:(Capability.root ()) ~base:4096 ~length:8
      ~perms:Perms.user_data
  in
  (match Vas.read_bytes pt ~via:narrow ~addr:4096 ~len:16 with
  | exception Capability.Violation _ -> ()
  | _ -> Alcotest.fail "expected Violation");
  let no_store = Capability.restrict_perms narrow Perms.load in
  match Vas.write_bytes pt ~via:no_store ~addr:4096 (Bytes.of_string "abc") with
  | exception Capability.Violation _ -> ()
  | _ -> Alcotest.fail "expected Violation"

let test_vas_unaligned_cap () =
  let pt, via = setup_vas () in
  match Vas.load_cap pt ~via ~addr:(4096 + 8) with
  | exception Capability.Violation _ -> ()
  | _ -> Alcotest.fail "expected Violation"

let test_vas_kernel_paths () =
  let pt, via = setup_vas () in
  ignore via;
  Vas.kernel_write_bytes pt ~addr:(3 * 4096) (Bytes.of_string "kernel");
  Alcotest.(check string) "kernel write ignores perms" "kernel"
    (Bytes.to_string (Vas.kernel_read_bytes pt ~addr:(3 * 4096) ~len:6));
  let c = mk_cap () in
  Vas.kernel_store_cap pt ~addr:(4 * 4096 + 32) c;
  Alcotest.(check bool) "kernel cap load skips CoPA bit" true
    (Capability.equal c (Vas.kernel_load_cap pt ~addr:(4 * 4096 + 32)))

(* Eight mapped rw pages at vpns 1..8, one capability over all of them. *)
let setup_wide_vas () =
  let phys = Phys.create () in
  let pt = Page_table.create phys in
  for v = 1 to 8 do
    Page_table.map pt ~vpn:v (Pte.make (Phys.alloc phys))
  done;
  let via =
    Capability.mint ~parent:(Capability.root ()) ~base:4096 ~length:(8 * 4096)
      ~perms:Perms.user_data
  in
  (pt, via)

let test_vas_multi_page_agrees_with_kernel () =
  let pt, via = setup_wide_vas () in
  let addr = 4096 + 100 and len = (3 * 4096) + 500 in
  (* Capabilities inside and just outside the span. *)
  let inside = 4096 + 2048 and outside = 4096 + 80 in
  Vas.kernel_store_cap pt ~addr:inside (mk_cap ());
  Vas.kernel_store_cap pt ~addr:outside (mk_cap ());
  let s = Bytes.init len (fun i -> Char.chr ((i * 7) land 0xff)) in
  Vas.write_bytes pt ~via ~addr s;
  Alcotest.(check bytes) "user write, kernel read" s
    (Vas.kernel_read_bytes pt ~addr ~len);
  let tag_at a = Page.tag_at (Vas.kernel_page pt ~vpn:(Addr.vpn_of_addr a))
      ~off:(Addr.page_offset a) in
  Alcotest.(check bool) "overlapped tag cleared" false (tag_at inside);
  Alcotest.(check bool) "tag outside the span kept" true (tag_at outside);
  let t = Bytes.init len (fun i -> Char.chr ((i * 13 + 5) land 0xff)) in
  Vas.kernel_write_bytes pt ~addr:(addr + 3) t;
  Alcotest.(check bytes) "kernel write, user read" t
    (Vas.read_bytes pt ~via ~addr:(addr + 3) ~len);
  Alcotest.(check bytes) "user and kernel reads agree"
    (Vas.kernel_read_bytes pt ~addr:4096 ~len:(8 * 4096))
    (Vas.read_bytes pt ~via ~addr:4096 ~len:(8 * 4096))

let test_vas_round_trip_alloc () =
  let phys = Phys.create () in
  let pt = Page_table.create phys in
  let len = 100 * 1024 in
  let pages = Addr.bytes_to_pages len + 1 in
  for v = 1 to pages do
    Page_table.map pt ~vpn:v (Pte.make (Phys.alloc phys))
  done;
  let via =
    Capability.mint ~parent:(Capability.root ()) ~base:4096
      ~length:(pages * 4096) ~perms:Perms.user_data
  in
  let src = Bytes.make len 'x' and addr = 4096 + 123 in
  let round_trip () =
    Vas.write_bytes pt ~via ~addr src;
    ignore (Sys.opaque_identity (Vas.read_bytes pt ~via ~addr ~len))
  in
  round_trip ();
  (* The result buffer is the only thing proportional to [len]. *)
  let budget = (len / 8) + 1024 in
  let words = allocated_words round_trip in
  if words > budget then
    Alcotest.failf "100 KiB Vas round trip allocated %d words (budget %d)"
      words budget

let prop_vas_roundtrip =
  QCheck.Test.make ~name:"vas write/read roundtrip" ~count:200
    QCheck.(pair (int_range 0 8100) (string_of_size Gen.(1 -- 200)))
    (fun (off, s) ->
      let pt, via = setup_vas () in
      let addr = 4096 + off in
      QCheck.assume (addr + String.length s <= 3 * 4096);
      Vas.write_bytes pt ~via ~addr (Bytes.of_string s);
      Bytes.to_string (Vas.read_bytes pt ~via ~addr ~len:(String.length s)) = s)

let qt = QCheck_alcotest.to_alcotest

let suite =
  [
    ("addr basics", `Quick, test_addr_basics);
    ("page rw", `Quick, test_page_rw);
    ("page bounds", `Quick, test_page_bounds);
    ("page cap roundtrip", `Quick, test_page_cap_roundtrip);
    ("page tag clear on write", `Quick, test_page_tag_clear_on_write);
    ("page tag clear edges", `Quick, test_page_tag_clear_edge);
    ("page store untagged", `Quick, test_page_store_untagged_clears);
    ("page cap alignment", `Quick, test_page_alignment);
    ("page deep copy", `Quick, test_page_copy_deep);
    ("page iter/map caps", `Quick, test_page_iter_map_caps);
    ("page blit bounds", `Quick, test_page_blit_bounds);
    ("page copy_into", `Quick, test_page_copy_into);
    ("page copy_into alloc budget", `Quick, test_page_copy_into_alloc);
    ("phys refcount", `Quick, test_phys_refcount);
    ("phys limit", `Quick, test_phys_limit);
    ("phys peak", `Quick, test_phys_peak);
    ("pt map/unmap", `Quick, test_pt_map_unmap);
    ("pt double map", `Quick, test_pt_double_map);
    ("pt share/replace", `Quick, test_pt_share_and_replace);
    ("pt range ops", `Quick, test_pt_range_ops);
    ("pt unmap_range over holes", `Quick, test_pt_unmap_range_holes);
    ("pt remap after unmap", `Quick, test_pt_remap_after_unmap);
    ("pt replace keeps aliases", `Quick, test_pt_replace_keeps_other_aliases);
    ("pt shared alias counts", `Quick, test_pt_shared_alias_counts);
    ("pt map_range", `Quick, test_pt_map_range);
    ("pt fold_range", `Quick, test_pt_fold_range);
    ("vas rw cross page", `Quick, test_vas_rw_cross_page);
    ("vas u64", `Quick, test_vas_u64);
    ("vas ro write fault", `Quick, test_vas_write_fault_on_ro);
    ("vas unmapped fault", `Quick, test_vas_unmapped_fault);
    ("vas CoPA fault bit", `Quick, test_vas_cap_load_fault_bit);
    ("vas cap checks first", `Quick, test_vas_cap_checks_dominate);
    ("vas unaligned cap", `Quick, test_vas_unaligned_cap);
    ("vas kernel paths", `Quick, test_vas_kernel_paths);
    ("vas multi-page = kernel paths", `Quick,
      test_vas_multi_page_agrees_with_kernel);
    ("vas round trip alloc budget", `Quick, test_vas_round_trip_alloc);
    qt prop_align;
    qt prop_page_write_preserves_other_bytes;
    qt prop_page_blit_matches_bytes;
    qt prop_vas_roundtrip;
    qt prop_pt_map_range_fills_holes;
    qt prop_pt_fold_range_matches_fold;
  ]
