(* Tests for μFork itself: relocation, CoW/CoA/CoPA semantics, isolation,
   and the §4.3 security invariant (no parent capability ever leaks to a
   child). *)

module Addr = Ufork_mem.Addr
module Page = Ufork_mem.Page
module Phys = Ufork_mem.Phys
module Pte = Ufork_mem.Pte
module Page_table = Ufork_mem.Page_table
module Capability = Ufork_cheri.Capability
module Perms = Ufork_cheri.Perms
module Meter = Ufork_sim.Meter
module Config = Ufork_sas.Config
module Image = Ufork_sas.Image
module Api = Ufork_sas.Api
module Uproc = Ufork_sas.Uproc
module Kernel = Ufork_sas.Kernel
module Strategy = Ufork_core.Strategy
module Relocate = Ufork_core.Relocate
module Fork = Ufork_core.Fork
module Os = Ufork_core.Os
module Prng = Ufork_util.Prng

let run_os ?(cores = 4) ?(strategy = Strategy.Copa) ?config ?proactive
    ?(image = Image.hello) f =
  let os = Os.boot ~cores ?config ~strategy ?proactive () in
  let result = ref None in
  let _ = Os.start os ~image (fun api -> result := Some (f os api)) in
  Os.run os;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "init process did not complete"

(* --- Relocate unit tests --- *)

let test_relocate_cap () =
  let owner_area a =
    if a >= 0x1000 && a < 0x2000 then Some (0x1000, 0x1000)
    else if a >= 0x9000 && a < 0xa000 then Some (0x9000, 0x1000)
    else None
  in
  let child_base = 0x9000 and child_bytes = 0x1000 in
  let parent_cap =
    Capability.mint ~parent:(Capability.root ()) ~base:0x1100 ~length:0x10
      ~perms:Perms.user_data
  in
  let r = Relocate.relocate_cap ~owner_area ~child_base ~child_bytes parent_cap in
  Alcotest.(check int) "rebased into child" 0x9100 (Capability.base r);
  (* Already-child capabilities are untouched. *)
  let child_cap =
    Capability.mint ~parent:(Capability.root ()) ~base:0x9100 ~length:0x10
      ~perms:Perms.user_data
  in
  Alcotest.(check bool) "child cap unchanged" true
    (Capability.equal child_cap
       (Relocate.relocate_cap ~owner_area ~child_base ~child_bytes child_cap));
  (* Unknown-owner capabilities lose their tag (never leak authority). *)
  let wild =
    Capability.mint ~parent:(Capability.root ()) ~base:0x5000 ~length:0x10
      ~perms:Perms.user_data
  in
  Alcotest.(check bool) "dangling cleared" false
    (Capability.tag
       (Relocate.relocate_cap ~owner_area ~child_base ~child_bytes wild))

let test_relocate_page () =
  let page = Page.create () in
  let mk base =
    Capability.mint ~parent:(Capability.root ()) ~base ~length:16
      ~perms:Perms.user_data
  in
  Page.store_cap page ~off:0 (mk 0x1000);
  Page.store_cap page ~off:64 (mk 0x9100);
  Page.write_u64 page ~off:128 0x1008L (* an integer that looks like a ptr *);
  let owner_area a =
    if a >= 0x1000 && a < 0x2000 then Some (0x1000, 0x1000)
    else if a >= 0x9000 && a < 0xa000 then Some (0x9000, 0x1000)
    else None
  in
  let outcome =
    Relocate.relocate_page ~owner_area ~child_base:0x9000 ~child_bytes:0x1000
      page
  in
  Alcotest.(check int) "scanned whole page" 256 outcome.Relocate.granules_scanned;
  Alcotest.(check int) "one relocated" 1 outcome.Relocate.relocated;
  Alcotest.(check int) "moved" 0x9000 (Capability.base (Page.load_cap page ~off:0));
  Alcotest.(check int) "kept" 0x9100 (Capability.base (Page.load_cap page ~off:64));
  (* The integer was not misidentified as a pointer (tag discipline). *)
  Alcotest.(check int64) "integer untouched" 0x1008L (Page.read_u64 page ~off:128)

(* The common two-area layout for the edge-case tests: a parent area at
   0x1000 and a child area at 0x9000, one page each. *)
let edge_owner_area a =
  if a >= 0x1000 && a < 0x2000 then Some (0x1000, 0x1000)
  else if a >= 0x9000 && a < 0xa000 then Some (0x9000, 0x1000)
  else None

let edge_mk base =
  Capability.mint ~parent:(Capability.root ()) ~base ~length:16
    ~perms:Perms.user_data

(* The one page-duplication loop: a tagged page copies exactly, and no
   page-sized temporary reaches the major heap on the way. *)
let test_copy_page_contents () =
  let src = Page.create () and dst = Page.create () in
  for g = 0 to Addr.granules_per_page - 1 do
    if g mod 3 = 0 then Page.store_cap src ~off:(g * 16) (edge_mk (0x1000 + g))
    else Page.write_u64 src ~off:(g * 16) (Int64.of_int g)
  done;
  Page.store_cap dst ~off:16 (edge_mk 0x9000);
  let _, direct_major =
    Test_mem.allocations (fun () ->
        Ufork_core.Memops.copy_page_contents ~src ~dst)
  in
  Alcotest.(check int) "words allocated in the major heap" 0 direct_major;
  Alcotest.(check string) "bytes"
    (Bytes.to_string (Page.read_bytes src ~off:0 ~len:Addr.page_size))
    (Bytes.to_string (Page.read_bytes dst ~off:0 ~len:Addr.page_size));
  Alcotest.(check (list int)) "tags" (Page.tagged_granules src)
    (Page.tagged_granules dst)

let test_relocate_page_zero_tag () =
  (* The zero-tag fast path: a page of raw data (including integers that
     look like parent pointers) is scanned but nothing moves. *)
  let page = Page.create () in
  Page.write_u64 page ~off:0 0x1008L;
  Page.write_u64 page ~off:(Addr.page_size - 8) 0x1ff0L;
  let outcome =
    Relocate.relocate_page ~owner_area:edge_owner_area ~child_base:0x9000
      ~child_bytes:0x1000 page
  in
  Alcotest.(check int) "scanned" Addr.granules_per_page
    outcome.Relocate.granules_scanned;
  Alcotest.(check int) "nothing relocated" 0 outcome.Relocate.relocated;
  Alcotest.(check int) "still untagged" 0 (Page.tagged_count page);
  Alcotest.(check int64) "raw data untouched" 0x1008L
    (Page.read_u64 page ~off:0)

let test_relocate_page_dangling_clear () =
  (* §4.3: a capability whose owner cannot be determined is tag-cleared —
     the authority must never follow the fork. The raw cursor bytes stay
     so integer loads still see the old address. *)
  let page = Page.create () in
  Page.store_cap page ~off:32 (edge_mk 0x5000);
  let outcome =
    Relocate.relocate_page ~owner_area:edge_owner_area ~child_base:0x9000
      ~child_bytes:0x1000 page
  in
  Alcotest.(check int) "tag-clear counts as a relocation" 1
    outcome.Relocate.relocated;
  Alcotest.(check bool) "tag gone" false (Page.tag_at page ~off:32);
  Alcotest.(check bool) "load yields untagged" false
    (Capability.tag (Page.load_cap page ~off:32));
  Alcotest.(check int64) "cursor bytes preserved" 0x5000L
    (Page.read_u64 page ~off:32)

let test_relocate_cap_last_granule () =
  (* A capability whose cursor sits in the last 16-byte granule of the
     page — and whose bounds end exactly at the area's end — must rebase
     without tripping the bounds checks on either side. *)
  let last = Addr.page_size - Addr.granule_size in
  let page = Page.create () in
  Page.store_cap page ~off:last (edge_mk (0x1000 + last));
  let outcome =
    Relocate.relocate_page ~owner_area:edge_owner_area ~child_base:0x9000
      ~child_bytes:0x1000 page
  in
  Alcotest.(check int) "one relocated" 1 outcome.Relocate.relocated;
  let cap = Page.load_cap page ~off:last in
  Alcotest.(check bool) "still tagged" true (Capability.tag cap);
  Alcotest.(check int) "base at the child's last granule" (0x9000 + last)
    (Capability.base cap);
  Alcotest.(check int) "cursor followed" (0x9000 + last)
    (Capability.cursor cap)

(* --- Fork semantics --- *)

let test_fork_pids_and_wait () =
  let pid, wpid, status =
    run_os (fun _os api ->
        let child = api.Api.fork (fun capi -> capi.Api.exit 42) in
        let wpid, status = api.Api.wait () in
        (child, wpid, status))
  in
  Alcotest.(check int) "wait returns child pid" pid wpid;
  Alcotest.(check int) "status" 42 status

let test_child_getpid_differs () =
  let parent_pid, child_pid =
    run_os (fun _os api ->
        let seen = ref 0 in
        ignore
          (api.Api.fork (fun capi ->
               seen := capi.Api.getpid ();
               capi.Api.exit 0));
        ignore (api.Api.wait ());
        (api.Api.getpid (), !seen))
  in
  Alcotest.(check bool) "distinct pids" true (parent_pid <> child_pid)

let test_normal_return_is_exit0 () =
  let status =
    run_os (fun _os api ->
        ignore (api.Api.fork (fun _capi -> ()));
        snd (api.Api.wait ()))
  in
  Alcotest.(check int) "implicit exit 0" 0 status

let fork_isolation strategy =
  run_os ~strategy (fun _os api ->
      let c = api.Api.malloc 64 in
      api.Api.write_bytes c ~off:0 (Bytes.of_string "original");
      api.Api.got_set 0 c;
      ignore
        (api.Api.fork (fun capi ->
             let c' = capi.Api.got_get 0 in
             (* Child sees the parent's data... *)
             let seen = Bytes.to_string (capi.Api.read_bytes c' ~off:0 ~len:8) in
             (* ...then overwrites its own copy. *)
             capi.Api.write_bytes c' ~off:0 (Bytes.of_string "CLOBBER!");
             capi.Api.exit (if seen = "original" then 0 else 1)));
      let _, status = api.Api.wait () in
      let mine = Bytes.to_string (api.Api.read_bytes c ~off:0 ~len:8) in
      (status, mine))

let test_isolation_copa () =
  let status, mine = fork_isolation Strategy.Copa in
  Alcotest.(check int) "child saw snapshot" 0 status;
  Alcotest.(check string) "parent unaffected" "original" mine

let test_isolation_coa () =
  let status, mine = fork_isolation Strategy.Coa in
  Alcotest.(check int) "child saw snapshot" 0 status;
  Alcotest.(check string) "parent unaffected" "original" mine

let test_isolation_full () =
  let status, mine = fork_isolation Strategy.Full_copy in
  Alcotest.(check int) "child saw snapshot" 0 status;
  Alcotest.(check string) "parent unaffected" "original" mine

let test_parent_write_isolated_from_child () =
  (* Inverse direction: parent writes after fork; the child must keep the
     snapshot. Parent and child synchronize through a pipe so the
     ordering is deterministic. *)
  let ok =
    run_os (fun _os api ->
        let c = api.Api.malloc 64 in
        api.Api.write_bytes c ~off:0 (Bytes.of_string "before");
        api.Api.got_set 0 c;
        let rfd, wfd = api.Api.pipe () in
        ignore
          (api.Api.fork (fun capi ->
               (* Wait until the parent has clobbered its copy. *)
               ignore (capi.Api.read rfd 1);
               let c' = capi.Api.got_get 0 in
               let seen = Bytes.to_string (capi.Api.read_bytes c' ~off:0 ~len:6) in
               capi.Api.exit (if seen = "before" then 0 else 1)));
        api.Api.write_bytes c ~off:0 (Bytes.of_string "after!");
        ignore (api.Api.write wfd (Bytes.of_string "g"));
        let _, status = api.Api.wait () in
        status = 0)
  in
  Alcotest.(check bool) "child keeps fork-time snapshot" true ok

let test_reloc_of_register_caps () =
  let ok =
    run_os (fun _os api ->
        let c = api.Api.malloc 32 in
        api.Api.write_u64 c ~off:0 7L;
        ignore
          (api.Api.fork (fun capi ->
               (* [c] captured from the parent scope is a parent-area
                  capability; reloc models the register relocation. *)
               let mine = capi.Api.reloc c in
               let moved = Capability.base mine <> Capability.base c in
               let v = capi.Api.read_u64 mine ~off:0 in
               capi.Api.exit (if moved && v = 7L then 0 else 1)));
        snd (api.Api.wait ()) = 0)
  in
  Alcotest.(check bool) "register caps relocated" true ok

let test_child_cannot_use_parent_cap () =
  (* Under isolation, a child dereferencing the *unrelocated* parent
     capability must observe its own (copied) memory or be stopped — it
     must never read fresh parent writes. With bounded user capabilities
     the parent cap points at parent memory, which still holds the
     snapshot; the key check is that the relocated and raw views agree at
     fork time but diverge from the parent's later writes. *)
  let ok =
    run_os (fun _os api ->
        let c = api.Api.malloc 16 in
        api.Api.write_u64 c ~off:0 1L;
        let rfd, wfd = api.Api.pipe () in
        ignore
          (api.Api.fork (fun capi ->
               ignore (capi.Api.read rfd 1);
               let v = capi.Api.read_u64 (capi.Api.reloc c) ~off:0 in
               capi.Api.exit (if v = 1L then 0 else 1)));
        api.Api.write_u64 c ~off:0 2L;
        ignore (api.Api.write wfd (Bytes.of_string "g"));
        snd (api.Api.wait ()) = 0)
  in
  Alcotest.(check bool) "snapshot semantics" true ok

let test_fd_inheritance () =
  let got =
    run_os (fun _os api ->
        let rfd, wfd = api.Api.pipe () in
        ignore
          (api.Api.fork (fun capi ->
               ignore (capi.Api.write wfd (Bytes.of_string "from child"));
               capi.Api.exit 0));
        let b = api.Api.read rfd 10 in
        ignore (api.Api.wait ());
        Bytes.to_string b)
  in
  Alcotest.(check string) "pipe across fork" "from child" got

let test_nested_fork () =
  let ok =
    run_os (fun _os api ->
        let c = api.Api.malloc 32 in
        api.Api.write_u64 c ~off:0 99L;
        api.Api.got_set 0 c;
        ignore
          (api.Api.fork (fun capi ->
               let mine = capi.Api.got_get 0 in
               capi.Api.write_u64 mine ~off:8 1L;
               ignore
                 (capi.Api.fork (fun gapi ->
                      let g = gapi.Api.got_get 0 in
                      let v0 = gapi.Api.read_u64 g ~off:0 in
                      let v8 = gapi.Api.read_u64 g ~off:8 in
                      gapi.Api.exit (if v0 = 99L && v8 = 1L then 0 else 1)));
               let _, st = capi.Api.wait () in
               capi.Api.exit st));
        snd (api.Api.wait ()) = 0)
  in
  Alcotest.(check bool) "grandchild sees chained relocations" true ok

let test_sibling_forks () =
  let ok =
    run_os (fun _os api ->
        let c = api.Api.malloc 16 in
        api.Api.write_u64 c ~off:0 5L;
        api.Api.got_set 0 c;
        let spawn v =
          api.Api.fork (fun capi ->
              let mine = capi.Api.got_get 0 in
              capi.Api.write_u64 mine ~off:0 v;
              capi.Api.exit (Int64.to_int (capi.Api.read_u64 mine ~off:0)))
        in
        let _a = spawn 10L and _b = spawn 20L in
        let _, s1 = api.Api.wait () in
        let _, s2 = api.Api.wait () in
        let parent_v = api.Api.read_u64 c ~off:0 in
        List.sort compare [ s1; s2 ] = [ 10; 20 ] && parent_v = 5L)
  in
  Alcotest.(check bool) "siblings isolated" true ok

(* --- Copy behaviour per strategy --- *)

let copies_during api os (f : unit -> unit) =
  ignore api;
  let m = Kernel.meter (Os.kernel os) in
  let before =
    Meter.get m "page_copy_child" + Meter.get m "claim_in_place"
  in
  f ();
  Meter.get m "page_copy_child" + Meter.get m "claim_in_place" - before

let test_copa_data_read_does_not_copy () =
  let reads, caploads =
    run_os ~strategy:Strategy.Copa (fun os api ->
        let c = api.Api.malloc (8 * 4096) in
        (* Fill with raw data only. *)
        for i = 0 to 7 do
          api.Api.write_bytes c ~off:(i * 4096) (Bytes.make 64 'd')
        done;
        let header = api.Api.malloc 32 in
        api.Api.store_cap header ~off:0 c;
        api.Api.got_set 0 header;
        let out = ref (0, 0) in
        ignore
          (api.Api.fork (fun capi ->
               let h = capi.Api.got_get 0 in
               (* Pure data reads through the relocated register cap: *)
               let data = capi.Api.reloc c in
               let r =
                 copies_during capi os (fun () ->
                     for i = 0 to 7 do
                       ignore (capi.Api.read_bytes data ~off:(i * 4096) ~len:64)
                     done)
               in
               (* A capability load through the shared header page: *)
               let l =
                 copies_during capi os (fun () ->
                     ignore (capi.Api.load_cap h ~off:0))
               in
               out := (r, l);
               capi.Api.exit 0));
        ignore (api.Api.wait ());
        !out)
  in
  Alcotest.(check int) "data reads stay shared (CoPA)" 0 reads;
  Alcotest.(check bool) "cap load copies exactly its page" true (caploads >= 1)

let test_coa_read_copies () =
  let reads =
    run_os ~strategy:Strategy.Coa (fun os api ->
        let c = api.Api.malloc (4 * 4096) in
        api.Api.write_bytes c ~off:0 (Bytes.make 64 'd');
        let out = ref 0 in
        ignore
          (api.Api.fork (fun capi ->
               let data = capi.Api.reloc c in
               out :=
                 copies_during capi os (fun () ->
                     for i = 0 to 3 do
                       ignore (capi.Api.read_bytes data ~off:(i * 4096) ~len:1)
                     done);
               capi.Api.exit 0));
        ignore (api.Api.wait ());
        !out)
  in
  Alcotest.(check int) "CoA copies on every first read" 4 reads

let test_full_copy_no_child_faults () =
  let faults =
    run_os ~strategy:Strategy.Full_copy (fun os api ->
        let c = api.Api.malloc (4 * 4096) in
        api.Api.write_bytes c ~off:0 (Bytes.make 64 'd');
        let m = Kernel.meter (Os.kernel os) in
        ignore
          (api.Api.fork (fun capi ->
               let before = Meter.get m "fault" in
               let data = capi.Api.reloc c in
               for i = 0 to 3 do
                 ignore (capi.Api.read_bytes data ~off:(i * 4096) ~len:1);
                 capi.Api.write_bytes data ~off:(i * 4096) (Bytes.make 1 'x')
               done;
               capi.Api.exit (Meter.get m "fault" - before)));
        snd (api.Api.wait ()))
  in
  Alcotest.(check int) "no faults after a full copy" 0 faults

let test_claim_in_place () =
  (* Parent CoW-copies a page away; the child's later capability load finds
     refcount 1 and claims the frame without copying. *)
  let claims =
    run_os ~strategy:Strategy.Copa (fun os api ->
        let c = api.Api.malloc 4096 in
        api.Api.store_cap c ~off:0 (api.Api.malloc 16);
        api.Api.got_set 0 c;
        let rfd, wfd = api.Api.pipe () in
        let m = Kernel.meter (Os.kernel os) in
        ignore
          (api.Api.fork (fun capi ->
               ignore (capi.Api.read rfd 1);
               let before = Meter.get m "claim_in_place" in
               ignore (capi.Api.load_cap (capi.Api.reloc c) ~off:0);
               capi.Api.exit (Meter.get m "claim_in_place" - before)));
        (* Parent write forces its own private copy first. *)
        api.Api.write_bytes c ~off:64 (Bytes.make 1 'p');
        ignore (api.Api.write wfd (Bytes.of_string "g"));
        snd (api.Api.wait ()))
  in
  Alcotest.(check int) "claimed in place" 1 claims

let test_fork_latency_gauge () =
  let lat =
    run_os (fun os api ->
        ignore (api.Api.fork (fun capi -> capi.Api.exit 0));
        ignore (api.Api.wait ());
        Fork.last_fork_latency (Os.kernel os))
  in
  Alcotest.(check bool) "gauge recorded" true (lat > 0L)

let test_proactive_off_still_correct () =
  let ok =
    run_os ~proactive:false (fun _os api ->
        let c = api.Api.malloc 16 in
        api.Api.write_u64 c ~off:0 123L;
        api.Api.got_set 0 c;
        ignore
          (api.Api.fork (fun capi ->
               let v = capi.Api.read_u64 (capi.Api.got_get 0) ~off:0 in
               capi.Api.exit (if v = 123L then 0 else 1)));
        snd (api.Api.wait ()) = 0)
  in
  Alcotest.(check bool) "lazy GOT still correct under CoPA" true ok

let test_segfault_on_wild_access () =
  (* Two layers stop invalid accesses: a capability outside the μprocess
     area cannot even exist there (Violation — see the confinement note in
     Kernel.build_api), and an access through an in-area capability to an
     unmapped guard page is a real segfault. Both capabilities are
     manufactured with kernel authority; user code cannot forge them. *)
  let foreign_blocked, guard_faults =
    run_os (fun os api ->
        let wild =
          Capability.mint ~parent:(Capability.root ()) ~base:128 ~length:16
            ~perms:Perms.user_data
        in
        let foreign =
          match api.Api.read_bytes wild ~off:0 ~len:1 with
          | exception Capability.Violation _ -> true
          | _ -> false
        in
        let u = Option.get (Kernel.find_uproc (Os.kernel os) 1) in
        let guard_addr =
          u.Uproc.regions.Uproc.got_base + u.Uproc.regions.Uproc.got_bytes
        in
        let guard_cap =
          Capability.mint ~parent:(Capability.root ()) ~base:guard_addr
            ~length:16 ~perms:Perms.user_data
        in
        let guard =
          match api.Api.read_bytes guard_cap ~off:0 ~len:1 with
          | exception Fork.Segfault _ -> true
          | _ -> false
        in
        (foreign, guard))
  in
  Alcotest.(check bool) "foreign capability rejected" true foreign_blocked;
  Alcotest.(check bool) "guard page segfaults" true guard_faults

let test_child_allocations_independent () =
  let ok =
    run_os (fun _os api ->
        let c = api.Api.malloc 64 in
        api.Api.got_set 0 c;
        ignore
          (api.Api.fork (fun capi ->
               (* Fresh child allocation lands in the child's area and does
                  not alias the inherited block. *)
               let fresh = capi.Api.malloc 64 in
               let inherited = capi.Api.got_get 0 in
               capi.Api.write_bytes fresh ~off:0 (Bytes.make 64 'f');
               let clean =
                 Bytes.to_string (capi.Api.read_bytes inherited ~off:0 ~len:1)
                 = "\000"
               in
               (* The child can free the inherited block: the allocator
                  mirror was rebased. *)
               capi.Api.free inherited;
               capi.Api.exit (if clean then 0 else 1)));
        snd (api.Api.wait ()) = 0)
  in
  Alcotest.(check bool) "child allocator independent" true ok

let test_area_reuse_after_reap () =
  let distinct_areas =
    run_os (fun os api ->
        let base pid =
          match Kernel.find_uproc (Os.kernel os) pid with
          | Some u -> u.Uproc.area_base
          | None -> -1
        in
        let p1 = api.Api.fork (fun capi -> capi.Api.exit 0) in
        let b1 = base p1 in
        ignore (api.Api.wait ());
        let p2 = api.Api.fork (fun capi -> capi.Api.exit 0) in
        let b2 = base p2 in
        ignore (api.Api.wait ());
        (b1, b2))
  in
  let b1, b2 = distinct_areas in
  Alcotest.(check int) "area recycled after reap" b1 b2

(* --- The §4.3 security invariant, as a property ---

   Build a random capability graph in the parent, fork, make the child
   walk it completely. Then every tagged capability stored in any page
   mapped PRIVATE in the child's area must target the child's area. *)

let build_graph api (g : Prng.t) n =
  let blocks =
    Array.init n (fun i ->
        let c = api.Api.malloc 128 in
        api.Api.write_u64 c ~off:0 (Int64.of_int (i * 1000));
        c)
  in
  Array.iteri
    (fun _i c ->
      (* Two outgoing edges at granules 1 and 2. *)
      let tgt1 = blocks.(Prng.int g n) in
      api.Api.store_cap c ~off:16 tgt1;
      if Prng.bool g then api.Api.store_cap c ~off:32 blocks.(Prng.int g n))
    blocks;
  let root = api.Api.malloc ((n + 1) * 16) in
  Array.iteri (fun i c -> api.Api.store_cap root ~off:((i + 1) * 16) c) blocks;
  api.Api.write_u64 root ~off:0 (Int64.of_int n);
  api.Api.got_set 0 root;
  Array.map (fun c -> Capability.base c) blocks

let walk_graph api =
  let root = api.Api.got_get 0 in
  let n = Int64.to_int (api.Api.read_u64 root ~off:0) in
  let sum = ref 0L in
  for i = 1 to n do
    let b = api.Api.load_cap root ~off:(i * 16) in
    sum := Int64.add !sum (api.Api.read_u64 b ~off:0);
    let e1 = api.Api.load_cap b ~off:16 in
    sum := Int64.add !sum (api.Api.read_u64 e1 ~off:0);
    let e2 = api.Api.load_cap b ~off:32 in
    if Capability.tag e2 then sum := Int64.add !sum (api.Api.read_u64 e2 ~off:0)
  done;
  !sum

(* Scan every private page of [u] for stored capabilities escaping the
   area. *)
let leaked_caps kernel (u : Uproc.t) =
  ignore kernel;
  let leaks = ref 0 in
  let vpn0 = Addr.vpn_of_addr u.Uproc.area_base in
  let count = Addr.bytes_to_pages u.Uproc.area_bytes in
  Page_table.iter_range u.Uproc.pt ~vpn:vpn0 ~count (fun _v pte ->
      if pte.Pte.share = Pte.Private then
        Page.iter_caps (Phys.page pte.Pte.frame) (fun _g cap ->
            if
              Capability.tag cap
              && not
                   (Capability.in_range cap ~lo:u.Uproc.area_base
                      ~hi:(u.Uproc.area_base + u.Uproc.area_bytes))
            then incr leaks));
  !leaks

let graph_invariant strategy seed =
  run_os ~strategy (fun os api ->
      let g = Prng.create ~seed in
      let n = 3 + Prng.int g 12 in
      ignore (build_graph api g n);
      let parent_sum = walk_graph api in
      let out = ref None in
      let child_pid =
        api.Api.fork (fun capi ->
            let child_sum = walk_graph capi in
            out := Some child_sum;
            capi.Api.exit 0)
      in
      let _ = api.Api.wait () in
      let leaks =
        match Kernel.find_uproc (Os.kernel os) child_pid with
        | Some child -> leaked_caps (Os.kernel os) child
        | None -> -1
      in
      (parent_sum, !out, leaks))

let prop_no_leaks strategy name =
  QCheck.Test.make ~name ~count:25 QCheck.int64 (fun seed ->
      let parent_sum, child_sum, leaks = graph_invariant strategy seed in
      child_sum = Some parent_sum && leaks = 0)

let test_strategies_agree () =
  (* All three strategies expose the same semantics to the child. *)
  let sums =
    List.map
      (fun s ->
        let p, c, _ = graph_invariant s 4242L in
        (p, c))
      Strategy.all
  in
  match sums with
  | (p1, c1) :: rest ->
      Alcotest.(check bool) "self consistent" true (c1 = Some p1);
      List.iter
        (fun (p, c) ->
          Alcotest.(check bool) "same as CoPA" true (p = p1 && c = c1))
        rest
  | [] -> Alcotest.fail "no strategies"

let qt = QCheck_alcotest.to_alcotest

let suite =
  [
    ("relocate cap", `Quick, test_relocate_cap);
    ("relocate page", `Quick, test_relocate_page);
    ("relocate page: zero-tag fast path", `Quick, test_relocate_page_zero_tag);
    ("copy_page_contents: exact, no page temporary", `Quick,
     test_copy_page_contents);
    ("relocate page: dangling owner tag-clear", `Quick,
     test_relocate_page_dangling_clear);
    ("relocate cap: last granule of the page", `Quick,
     test_relocate_cap_last_granule);
    ("fork pids and wait", `Quick, test_fork_pids_and_wait);
    ("child getpid differs", `Quick, test_child_getpid_differs);
    ("normal return exits 0", `Quick, test_normal_return_is_exit0);
    ("isolation CoPA", `Quick, test_isolation_copa);
    ("isolation CoA", `Quick, test_isolation_coa);
    ("isolation full copy", `Quick, test_isolation_full);
    ("parent writes isolated", `Quick, test_parent_write_isolated_from_child);
    ("register caps relocated", `Quick, test_reloc_of_register_caps);
    ("snapshot semantics", `Quick, test_child_cannot_use_parent_cap);
    ("fd inheritance", `Quick, test_fd_inheritance);
    ("nested fork", `Quick, test_nested_fork);
    ("sibling forks", `Quick, test_sibling_forks);
    ("CoPA data reads shared", `Quick, test_copa_data_read_does_not_copy);
    ("CoA reads copy", `Quick, test_coa_read_copies);
    ("full copy no faults", `Quick, test_full_copy_no_child_faults);
    ("claim in place", `Quick, test_claim_in_place);
    ("fork latency gauge", `Quick, test_fork_latency_gauge);
    ("lazy GOT correct", `Quick, test_proactive_off_still_correct);
    ("wild access segfaults", `Quick, test_segfault_on_wild_access);
    ("child allocator independent", `Quick, test_child_allocations_independent);
    ("area reuse after reap", `Quick, test_area_reuse_after_reap);
    ("strategies agree", `Quick, test_strategies_agree);
    qt (prop_no_leaks Strategy.Copa "no cap leaks to child (CoPA)");
    qt (prop_no_leaks Strategy.Coa "no cap leaks to child (CoA)");
    qt (prop_no_leaks Strategy.Full_copy "no cap leaks to child (full copy)");
  ]
