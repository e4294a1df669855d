(* Tests for the OS construction kit: allocator, pipes, VFS, fd tables,
   process layout, and kernel services (exercised through a booted μFork
   system where a process context is needed). *)

module Addr = Ufork_mem.Addr
module Config = Ufork_sas.Config
module Image = Ufork_sas.Image
module Tinyalloc = Ufork_sas.Tinyalloc
module Pipe = Ufork_sas.Pipe
module Vfs = Ufork_sas.Vfs
module Fdesc = Ufork_sas.Fdesc
module Uproc = Ufork_sas.Uproc
module Kernel = Ufork_sas.Kernel
module Api = Ufork_sas.Api
module Capability = Ufork_cheri.Capability
module Os = Ufork_core.Os

(* Run a single-process scenario on a freshly booted μFork OS and return
   its result. *)
let in_proc ?(image = Image.hello) ?config f =
  let os = Os.boot ~cores:2 ?config () in
  let result = ref None in
  let _ = Os.start os ~image (fun api -> result := Some (f api)) in
  Os.run os;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "process did not complete"

(* --- Config --- *)

let test_config_presets () =
  Alcotest.(check bool) "ufork_fast has no toctou" false
    Config.ufork_fast.Config.toctou;
  Alcotest.(check bool) "default has toctou" true
    Config.ufork_default.Config.toctou;
  let c = Config.with_isolation Config.No_isolation Config.ufork_default in
  Alcotest.(check bool) "with_isolation" true
    (c.Config.isolation = Config.No_isolation)

(* --- Image / regions --- *)

let test_image_layout () =
  let img = Image.hello in
  let r = Uproc.layout_regions img ~area_base:0x100000 in
  (* Regions are disjoint and ordered. *)
  Alcotest.(check bool) "ordered" true
    (r.Uproc.got_base < r.Uproc.code_base
    && r.Uproc.code_base + r.Uproc.code_bytes <= r.Uproc.data_base
    && r.Uproc.data_base + r.Uproc.data_bytes <= r.Uproc.stack_base
    && r.Uproc.stack_base + r.Uproc.stack_bytes <= r.Uproc.meta_base
    && r.Uproc.meta_base + r.Uproc.meta_bytes <= r.Uproc.heap_base);
  Alcotest.(check bool) "fits in area" true
    (r.Uproc.heap_base + r.Uproc.heap_bytes
    <= 0x100000 + Image.area_bytes img);
  Alcotest.(check bool) "page aligned" true
    (List.for_all
       (fun v -> v mod Addr.page_size = 0)
       [ r.Uproc.got_base; r.Uproc.code_base; r.Uproc.data_base;
         r.Uproc.stack_base; r.Uproc.meta_base; r.Uproc.heap_base ])

let test_image_validation () =
  Alcotest.check_raises "bad size"
    (Invalid_argument "Image.make: non-positive region") (fun () ->
      ignore (Image.make ~code_bytes:0 "bad"))

let test_region_of_addr () =
  let img = Image.hello in
  let area_base = 0x200000 in
  let r = Uproc.layout_regions img ~area_base in
  let phys = Ufork_mem.Phys.create () in
  let pt = Ufork_mem.Page_table.create phys in
  let u = Uproc.create ~pid:1 ~image:img ~area_base ~pt () in
  Alcotest.(check (option string)) "got" (Some "got")
    (Uproc.region_of_addr u r.Uproc.got_base);
  Alcotest.(check (option string)) "heap" (Some "heap")
    (Uproc.region_of_addr u (r.Uproc.heap_base + 100));
  Alcotest.(check (option string)) "guard gap" None
    (Uproc.region_of_addr u (r.Uproc.got_base + r.Uproc.got_bytes));
  Alcotest.(check bool) "contains" true (Uproc.contains u (area_base + 1))

(* --- Tinyalloc --- *)

let mk_alloc ?(heap_size = 1024 * 1024) () =
  Tinyalloc.create ~heap_base:0x10000 ~heap_size ~meta_capacity_granules:4096

let test_alloc_basic () =
  let a = mk_alloc () in
  let b1 = Tinyalloc.alloc a 100 in
  Alcotest.(check int) "aligned size" 112 b1.Tinyalloc.size;
  Alcotest.(check bool) "aligned addr" true
    (Addr.is_granule_aligned b1.Tinyalloc.addr);
  let b2 = Tinyalloc.alloc a 16 in
  Alcotest.(check bool) "no overlap" true
    (b2.Tinyalloc.addr >= b1.Tinyalloc.addr + b1.Tinyalloc.size);
  Alcotest.(check int) "used" (112 + 16) (Tinyalloc.used_bytes a);
  Alcotest.(check int) "live" 2 (Tinyalloc.live_blocks a)

let test_alloc_free_reuse () =
  let a = mk_alloc () in
  let b1 = Tinyalloc.alloc a 64 in
  let _b2 = Tinyalloc.alloc a 64 in
  let freed = Tinyalloc.free a b1.Tinyalloc.addr in
  Alcotest.(check int) "freed size" 64 freed.Tinyalloc.size;
  let b3 = Tinyalloc.alloc a 64 in
  Alcotest.(check int) "first fit reuses" b1.Tinyalloc.addr b3.Tinyalloc.addr

let test_alloc_coalescing () =
  let a = mk_alloc ~heap_size:(64 * 3) () in
  let b1 = Tinyalloc.alloc a 64 in
  let b2 = Tinyalloc.alloc a 64 in
  let b3 = Tinyalloc.alloc a 64 in
  (* Heap is full now. *)
  Alcotest.check_raises "full" Tinyalloc.Out_of_heap (fun () ->
      ignore (Tinyalloc.alloc a 16));
  ignore (Tinyalloc.free a b1.Tinyalloc.addr);
  ignore (Tinyalloc.free a b3.Tinyalloc.addr);
  ignore (Tinyalloc.free a b2.Tinyalloc.addr);
  (* All three coalesce back into one span. *)
  let big = Tinyalloc.alloc a (64 * 3) in
  Alcotest.(check int) "coalesced" b1.Tinyalloc.addr big.Tinyalloc.addr

let test_alloc_bad_free () =
  let a = mk_alloc () in
  let b = Tinyalloc.alloc a 64 in
  Alcotest.check_raises "bad free"
    (Invalid_argument "Tinyalloc.free: not a live block start") (fun () ->
      ignore (Tinyalloc.free a (b.Tinyalloc.addr + 16)))

let test_alloc_clone () =
  let a = mk_alloc () in
  let b1 = Tinyalloc.alloc a 64 in
  let c = Tinyalloc.clone a ~delta:0x100000 in
  Alcotest.(check int) "base shifted" (0x10000 + 0x100000) (Tinyalloc.heap_base c);
  Alcotest.(check int) "used preserved" (Tinyalloc.used_bytes a)
    (Tinyalloc.used_bytes c);
  (* The clone can free the shifted block. *)
  let freed = Tinyalloc.free c (b1.Tinyalloc.addr + 0x100000) in
  Alcotest.(check int) "meta index preserved" b1.Tinyalloc.meta_index
    freed.Tinyalloc.meta_index;
  (* And the original is untouched. *)
  Alcotest.(check int) "original live" 1 (Tinyalloc.live_blocks a)

let test_alloc_meta_exhaustion () =
  let a =
    Tinyalloc.create ~heap_base:0x10000 ~heap_size:(1024 * 1024)
      ~meta_capacity_granules:2
  in
  ignore (Tinyalloc.alloc a 16);
  ignore (Tinyalloc.alloc a 16);
  Alcotest.check_raises "meta exhausted" Tinyalloc.Out_of_heap (fun () ->
      ignore (Tinyalloc.alloc a 16))

let test_block_of_addr () =
  let a = mk_alloc () in
  let b = Tinyalloc.alloc a 64 in
  (match Tinyalloc.block_of_addr a (b.Tinyalloc.addr + 10) with
  | Some found -> Alcotest.(check int) "found" b.Tinyalloc.addr found.Tinyalloc.addr
  | None -> Alcotest.fail "not found");
  Alcotest.(check bool) "miss" true
    (Tinyalloc.block_of_addr a (b.Tinyalloc.addr + 64) = None)

let prop_alloc_no_overlap =
  QCheck.Test.make ~name:"allocations never overlap" ~count:100
    QCheck.(list_of_size Gen.(1 -- 40) (int_range 1 2048))
    (fun sizes ->
      let a = mk_alloc () in
      let blocks = List.map (fun s -> Tinyalloc.alloc a s) sizes in
      let sorted =
        List.sort (fun x y -> compare x.Tinyalloc.addr y.Tinyalloc.addr) blocks
      in
      let rec disjoint = function
        | b1 :: (b2 :: _ as rest) ->
            b1.Tinyalloc.addr + b1.Tinyalloc.size <= b2.Tinyalloc.addr
            && disjoint rest
        | _ -> true
      in
      disjoint sorted)

let prop_alloc_free_all_restores =
  QCheck.Test.make ~name:"freeing all restores full heap" ~count:100
    QCheck.(list_of_size Gen.(1 -- 30) (int_range 1 1024))
    (fun sizes ->
      let a = mk_alloc ~heap_size:(128 * 1024) () in
      match List.map (fun s -> Tinyalloc.alloc a s) sizes with
      | exception Tinyalloc.Out_of_heap -> QCheck.assume_fail ()
      | blocks ->
          List.iter (fun b -> ignore (Tinyalloc.free a b.Tinyalloc.addr)) blocks;
          Tinyalloc.used_bytes a = 0
          &&
          (* One maximal allocation succeeds again. *)
          let big = Tinyalloc.alloc a (128 * 1024) in
          big.Tinyalloc.addr = 0x10000)

(* --- Pipe --- *)

let test_pipe_fifo () =
  let p = Pipe.create ~capacity:8 () in
  (match Pipe.try_write p (Bytes.of_string "abcde") with
  | Pipe.Wrote 5 -> ()
  | _ -> Alcotest.fail "write");
  (match Pipe.try_read p 3 with
  | Pipe.Data b -> Alcotest.(check string) "fifo order" "abc" (Bytes.to_string b)
  | _ -> Alcotest.fail "read");
  match Pipe.try_read p 10 with
  | Pipe.Data b -> Alcotest.(check string) "rest" "de" (Bytes.to_string b)
  | _ -> Alcotest.fail "read rest"

let test_pipe_capacity () =
  let p = Pipe.create ~capacity:4 () in
  (match Pipe.try_write p (Bytes.of_string "abcdef") with
  | Pipe.Wrote 4 -> ()
  | _ -> Alcotest.fail "partial write");
  match Pipe.try_write p (Bytes.of_string "x") with
  | Pipe.Would_block -> ()
  | _ -> Alcotest.fail "should block"

let test_pipe_eof_and_epipe () =
  let p = Pipe.create () in
  ignore (Pipe.try_write p (Bytes.of_string "z"));
  Pipe.close_write p;
  (match Pipe.try_read p 10 with
  | Pipe.Data b -> Alcotest.(check string) "drains" "z" (Bytes.to_string b)
  | _ -> Alcotest.fail "drain");
  (match Pipe.try_read p 10 with
  | Pipe.Eof -> ()
  | _ -> Alcotest.fail "eof");
  let q = Pipe.create () in
  Pipe.close_read q;
  Alcotest.check_raises "epipe" Pipe.Broken_pipe (fun () ->
      ignore (Pipe.try_write q (Bytes.of_string "x")))

let test_pipe_empty () =
  let p = Pipe.create () in
  match Pipe.try_read p 1 with
  | Pipe.Empty -> ()
  | _ -> Alcotest.fail "empty"

(* --- Vfs --- *)

let test_vfs_crud () =
  let v = Vfs.create () in
  Vfs.put v "/a" "hello";
  Alcotest.(check bool) "exists" true (Vfs.exists v "/a");
  Alcotest.(check int) "size" 5 (Vfs.size v "/a");
  Alcotest.(check string) "contents" "hello" (Vfs.contents v "/a");
  Vfs.rename v ~src:"/a" ~dst:"/b";
  Alcotest.(check bool) "renamed away" false (Vfs.exists v "/a");
  Alcotest.(check string) "renamed" "hello" (Vfs.contents v "/b");
  Vfs.unlink v "/b";
  Alcotest.(check (list string)) "empty" [] (Vfs.list v);
  Alcotest.check_raises "missing" Not_found (fun () -> ignore (Vfs.contents v "/b"))

let test_vfs_streaming () =
  let v = Vfs.create () in
  let f = Vfs.open_ v "/f" `Create in
  ignore (Vfs.write f (Bytes.of_string "01234"));
  ignore (Vfs.write f (Bytes.of_string "56789"));
  Vfs.seek f 3;
  Alcotest.(check string) "seek+read" "3456" (Bytes.to_string (Vfs.read f 4));
  Alcotest.(check string) "short at eof" "789" (Bytes.to_string (Vfs.read f 10));
  Alcotest.(check int) "size_of" 10 (Vfs.size_of f);
  Vfs.close f;
  Alcotest.check_raises "closed" (Invalid_argument "Vfs: file is closed")
    (fun () -> ignore (Vfs.read f 1))

let test_vfs_append_grows () =
  let v = Vfs.create () in
  Vfs.put v "/log" "aa";
  let f = Vfs.open_ v "/log" `Append in
  ignore (Vfs.write f (Bytes.of_string "bb"));
  Vfs.close f;
  Alcotest.(check string) "appended" "aabb" (Vfs.contents v "/log");
  (* Large writes trigger buffer growth. *)
  let g = Vfs.open_ v "/big" `Create in
  ignore (Vfs.write g (Bytes.make 10_000 'x'));
  Vfs.close g;
  Alcotest.(check int) "grown" 10_000 (Vfs.size v "/big")

(* File bytes live in 64 KiB blocks: every test below crosses one. *)
let vfs_block = 64 * 1024
let pattern ?(salt = 0) n =
  Bytes.init n (fun i -> Char.chr ((i * 31 + salt) land 0xff))

let test_vfs_block_boundary () =
  let v = Vfs.create () in
  let f = Vfs.open_ v "/f" `Create in
  let a = pattern (vfs_block - 6) and b = pattern ~salt:1 20 in
  ignore (Vfs.write f a);
  ignore (Vfs.write f b);
  let whole = Bytes.to_string (Bytes.cat a b) in
  Alcotest.(check string) "write across the boundary" whole
    (Vfs.contents v "/f");
  Vfs.seek f (vfs_block - 100);
  Alcotest.(check string) "read spanning blocks"
    (String.sub whole (vfs_block - 100) 110)
    (Bytes.to_string (Vfs.read f 110));
  Alcotest.(check string) "short read at EOF"
    (String.sub whole (vfs_block + 10) 4)
    (Bytes.to_string (Vfs.read f 1000));
  Alcotest.(check int) "EOF reads nothing" 0 (Bytes.length (Vfs.read f 10))

let test_vfs_hole () =
  let v = Vfs.create () in
  let f = Vfs.open_ v "/h" `Create in
  ignore (Vfs.write f (Bytes.of_string "abc"));
  Vfs.seek f (vfs_block + 5);
  ignore (Vfs.write f (Bytes.of_string "xyz"));
  Alcotest.(check int) "size" (vfs_block + 8) (Vfs.size v "/h");
  Alcotest.(check string) "hole reads back as zeros"
    ("abc" ^ String.make (vfs_block + 2) '\000' ^ "xyz")
    (Vfs.contents v "/h")

let test_vfs_put_and_append_over_blocks () =
  let v = Vfs.create () in
  let big = Bytes.to_string (pattern (3 * vfs_block)) in
  Vfs.put v "/p" big;
  Alcotest.(check string) "put across blocks" big (Vfs.contents v "/p");
  Vfs.put v "/p" "small";
  Alcotest.(check string) "put replaces the old file" "small"
    (Vfs.contents v "/p");
  Vfs.put v "/log" (String.make (vfs_block - 1) 'a');
  let f = Vfs.open_ v "/log" `Append in
  ignore (Vfs.write f (Bytes.of_string "bcd"));
  Alcotest.(check string) "append across the boundary"
    (String.make (vfs_block - 1) 'a' ^ "bcd")
    (Vfs.contents v "/log")

let test_vfs_200k_round_trip () =
  let v = Vfs.create () in
  let data = pattern (200 * 1024) in
  let f = Vfs.open_ v "/r" `Create in
  let pos = ref 0 in
  while !pos < Bytes.length data do
    let n = min 7777 (Bytes.length data - !pos) in
    ignore (Vfs.write f (Bytes.sub data !pos n));
    pos := !pos + n
  done;
  Vfs.close f;
  let g = Vfs.open_ v "/r" `Read in
  let back = Buffer.create (Bytes.length data) in
  let rec drain () =
    let b = Vfs.read g 5000 in
    if Bytes.length b > 0 then begin
      Buffer.add_bytes back b;
      drain ()
    end
  in
  drain ();
  Alcotest.(check string) "chunked read" (Bytes.to_string data)
    (Buffer.contents back);
  Alcotest.(check string) "contents" (Bytes.to_string data)
    (Vfs.contents v "/r")

(* Random seeks and writes agree with a flat-buffer model. *)
let prop_vfs_matches_model =
  QCheck.Test.make ~name:"vfs blocks = flat model" ~count:100
    QCheck.(
      list_of_size
        Gen.(1 -- 8)
        (pair (int_range 0 200_000) (int_range 0 70_000)))
    (fun ops ->
      let v = Vfs.create () in
      let f = Vfs.open_ v "/m" `Create in
      let model = ref Bytes.empty in
      List.iteri
        (fun i (at, n) ->
          let b = pattern ~salt:i n in
          Vfs.seek f at;
          ignore (Vfs.write f b);
          let len = max (Bytes.length !model) (at + n) in
          let m = Bytes.make len '\000' in
          Bytes.blit !model 0 m 0 (Bytes.length !model);
          Bytes.blit b 0 m at n;
          model := m)
        ops;
      Vfs.contents v "/m" = Bytes.to_string !model)

(* --- Fdtable --- *)

let test_fdtable_alloc_order () =
  let t = Fdesc.Fdtable.create () in
  Alcotest.(check int) "stdio reserved" 3 (Fdesc.Fdtable.alloc t Fdesc.Null);
  Alcotest.(check int) "next" 4 (Fdesc.Fdtable.alloc t Fdesc.Null);
  Fdesc.Fdtable.close t 3;
  Alcotest.(check int) "lowest free reused" 3 (Fdesc.Fdtable.alloc t Fdesc.Null)

let test_fdtable_dup_shares_pipe () =
  let t = Fdesc.Fdtable.create () in
  let p = Pipe.create () in
  let rfd = Fdesc.Fdtable.alloc t (Fdesc.Pipe_read p) in
  let t' = Fdesc.Fdtable.dup_all t in
  (* Closing one copy does not close the pipe end... *)
  Fdesc.Fdtable.close t rfd;
  Alcotest.(check bool) "still open" true (Pipe.read_open p);
  (* ...closing the last one does. *)
  Fdesc.Fdtable.close t' rfd;
  Alcotest.(check bool) "closed" false (Pipe.read_open p)

let test_fdtable_close_all () =
  let t = Fdesc.Fdtable.create () in
  let p = Pipe.create () in
  ignore (Fdesc.Fdtable.alloc t (Fdesc.Pipe_write p));
  Fdesc.Fdtable.close_all t;
  Alcotest.(check int) "empty" 0 (Fdesc.Fdtable.open_count t);
  Alcotest.(check bool) "pipe write closed" false (Pipe.write_open p)

let test_fdtable_bad_fd () =
  let t = Fdesc.Fdtable.create () in
  Alcotest.check_raises "get" Not_found (fun () ->
      ignore (Fdesc.Fdtable.get t 99));
  Alcotest.check_raises "close" Not_found (fun () -> Fdesc.Fdtable.close t 99)

(* --- Kernel services through the API --- *)

let test_malloc_bounds () =
  let ok =
    in_proc (fun api ->
        let c = api.Api.malloc 100 in
        Capability.length c >= 100
        && Capability.tag c
        && not (Ufork_cheri.Perms.has (Capability.perms c) Ufork_cheri.Perms.system))
  in
  Alcotest.(check bool) "bounded user cap" true ok

let test_malloc_oob_access () =
  let violated =
    in_proc (fun api ->
        let c = api.Api.malloc 32 in
        match api.Api.read_bytes c ~off:0 ~len:64 with
        | exception Capability.Violation _ -> true
        | _ -> false)
  in
  Alcotest.(check bool) "capability stops overread" true violated

let test_malloc_enomem () =
  let raised =
    in_proc (fun api ->
        match api.Api.malloc (512 * 1024 * 1024) with
        | exception Api.Sys_error e -> String.length e > 0
        | _ -> false)
  in
  Alcotest.(check bool) "ENOMEM" true raised

let test_free_and_reuse () =
  let same =
    in_proc (fun api ->
        let c1 = api.Api.malloc 64 in
        api.Api.free c1;
        let c2 = api.Api.malloc 64 in
        Capability.base c1 = Capability.base c2)
  in
  Alcotest.(check bool) "free returns memory" true same

let test_malloc_recycled_memory_is_tag_free () =
  (* Heap temporal safety: a freed block containing valid capabilities
     must come back from malloc with every tag cleared — otherwise stale
     authority would leak to the next owner (this exact hazard corrupted
     the kvstore's rehashed bucket array before the allocator cleared
     tags, caught by the cross-system property test). *)
  let ok =
    in_proc (fun api ->
        let a = api.Api.malloc 64 in
        let target = api.Api.malloc 16 in
        api.Api.store_cap a ~off:0 target;
        api.Api.store_cap a ~off:48 target;
        api.Api.free a;
        let b = api.Api.malloc 64 in
        (* First-fit hands back the same memory... *)
        Capability.base b = Capability.base a
        (* ...with no stale capabilities inside. *)
        && (not (Capability.tag (api.Api.load_cap b ~off:0)))
        && not (Capability.tag (api.Api.load_cap b ~off:48)))
  in
  Alcotest.(check bool) "recycled memory is tag-free" true ok

let test_got_roundtrip () =
  let ok =
    in_proc (fun api ->
        let c = api.Api.malloc 16 in
        api.Api.got_set 3 c;
        Capability.equal (api.Api.got_get 3) c)
  in
  Alcotest.(check bool) "GOT roundtrip" true ok

let test_got_slot_range () =
  let raised =
    in_proc (fun api ->
        match api.Api.got_set 100000 (api.Api.malloc 16) with
        | exception Invalid_argument _ -> true
        | _ -> false)
  in
  Alcotest.(check bool) "GOT slot bound" true raised

let test_file_syscalls () =
  let contents =
    in_proc (fun api ->
        let fd = api.Api.open_ "/t" `Create in
        ignore (api.Api.write fd (Bytes.of_string "data1"));
        api.Api.close fd;
        let fd = api.Api.open_ "/t" `Read in
        let b = api.Api.read fd 5 in
        api.Api.close fd;
        api.Api.rename ~src:"/t" ~dst:"/t2";
        Bytes.to_string b)
  in
  Alcotest.(check string) "file roundtrip" "data1" contents

let test_pread () =
  let s =
    in_proc (fun api ->
        let fd = api.Api.open_ "/p" `Create in
        ignore (api.Api.write fd (Bytes.of_string "0123456789"));
        let b = api.Api.pread fd ~off:4 3 in
        Bytes.to_string b)
  in
  Alcotest.(check string) "pread" "456" s

let test_bad_fd () =
  let msg =
    in_proc (fun api ->
        match api.Api.read 42 1 with
        | exception Api.Sys_error e -> e
        | _ -> "")
  in
  Alcotest.(check string) "EBADF" "EBADF" msg

let test_pipe_through_api () =
  let got =
    in_proc (fun api ->
        let rfd, wfd = api.Api.pipe () in
        ignore (api.Api.write wfd (Bytes.of_string "ping"));
        Bytes.to_string (api.Api.read rfd 4))
  in
  Alcotest.(check string) "pipe" "ping" got

let test_wait_echild () =
  let raised =
    in_proc (fun api ->
        match api.Api.wait () with
        | exception Api.Sys_error e -> e
        | _ -> "")
  in
  Alcotest.(check string) "ECHILD" "ECHILD" raised

let test_time_advances () =
  let d =
    in_proc (fun api ->
        let t0 = api.Api.now () in
        api.Api.compute 1234L;
        Int64.sub (api.Api.now ()) t0)
  in
  Alcotest.(check int64) "compute advances clock" 1234L d

let test_demand_zero_heap () =
  (* Writing into an allocated block that spans unmaterialized pages works
     (pages appear on demand and read back zero). *)
  let ok =
    in_proc (fun api ->
        let c = api.Api.malloc (3 * 4096) in
        api.Api.write_u64 c ~off:(2 * 4096) 9L;
        api.Api.read_u64 c ~off:(2 * 4096) = 9L
        && api.Api.read_u64 c ~off:4096 = 0L)
  in
  Alcotest.(check bool) "demand zero" true ok

let test_no_isolation_wide_caps () =
  let wide =
    in_proc
      ~config:(Config.with_isolation Config.No_isolation Config.ufork_fast)
      (fun api ->
        let c = api.Api.malloc 16 in
        Capability.length c > 1_000_000_000)
  in
  Alcotest.(check bool) "no-isolation caps are wide" true wide

let qt = QCheck_alcotest.to_alcotest

let suite =
  [
    ("config presets", `Quick, test_config_presets);
    ("image layout", `Quick, test_image_layout);
    ("image validation", `Quick, test_image_validation);
    ("region of addr", `Quick, test_region_of_addr);
    ("alloc basic", `Quick, test_alloc_basic);
    ("alloc free/reuse", `Quick, test_alloc_free_reuse);
    ("alloc coalescing", `Quick, test_alloc_coalescing);
    ("alloc bad free", `Quick, test_alloc_bad_free);
    ("alloc clone", `Quick, test_alloc_clone);
    ("alloc meta exhaustion", `Quick, test_alloc_meta_exhaustion);
    ("block_of_addr", `Quick, test_block_of_addr);
    ("pipe fifo", `Quick, test_pipe_fifo);
    ("pipe capacity", `Quick, test_pipe_capacity);
    ("pipe eof/epipe", `Quick, test_pipe_eof_and_epipe);
    ("pipe empty", `Quick, test_pipe_empty);
    ("vfs crud", `Quick, test_vfs_crud);
    ("vfs streaming", `Quick, test_vfs_streaming);
    ("vfs append/grow", `Quick, test_vfs_append_grows);
    ("vfs block boundary", `Quick, test_vfs_block_boundary);
    ("vfs hole past EOF", `Quick, test_vfs_hole);
    ("vfs put/append over blocks", `Quick, test_vfs_put_and_append_over_blocks);
    ("vfs 200 KiB round trip", `Quick, test_vfs_200k_round_trip);
    QCheck_alcotest.to_alcotest prop_vfs_matches_model;
    ("fdtable alloc order", `Quick, test_fdtable_alloc_order);
    ("fdtable dup shares", `Quick, test_fdtable_dup_shares_pipe);
    ("fdtable close_all", `Quick, test_fdtable_close_all);
    ("fdtable bad fd", `Quick, test_fdtable_bad_fd);
    ("malloc bounds", `Quick, test_malloc_bounds);
    ("malloc oob access", `Quick, test_malloc_oob_access);
    ("malloc enomem", `Quick, test_malloc_enomem);
    ("free and reuse", `Quick, test_free_and_reuse);
    ("malloc recycled tag-free", `Quick, test_malloc_recycled_memory_is_tag_free);
    ("got roundtrip", `Quick, test_got_roundtrip);
    ("got slot range", `Quick, test_got_slot_range);
    ("file syscalls", `Quick, test_file_syscalls);
    ("pread", `Quick, test_pread);
    ("bad fd", `Quick, test_bad_fd);
    ("pipe via api", `Quick, test_pipe_through_api);
    ("wait ECHILD", `Quick, test_wait_echild);
    ("time advances", `Quick, test_time_advances);
    ("demand zero heap", `Quick, test_demand_zero_heap);
    ("no isolation wide caps", `Quick, test_no_isolation_wide_caps);
    qt prop_alloc_no_overlap;
    qt prop_alloc_free_all_restores;
  ]
