(* Tests for the applications: the Redis-like store + RDB serializer, the
   MicroPython-like interpreter, the Zygote FaaS loop, the Nginx-like
   server, Unixbench ports and hello. *)

module Image = Ufork_sas.Image
module Api = Ufork_sas.Api
module Vfs = Ufork_sas.Vfs
module Fdesc = Ufork_sas.Fdesc
module Kernel = Ufork_sas.Kernel
module Uproc = Ufork_sas.Uproc
module Os = Ufork_core.Os
module Strategy = Ufork_core.Strategy
module Kvstore = Ufork_apps.Kvstore
module Rdb = Ufork_apps.Rdb
module Mpy = Ufork_apps.Mpy
module Faas = Ufork_apps.Faas
module Httpd = Ufork_apps.Httpd
module Unixbench = Ufork_apps.Unixbench
module Hello = Ufork_apps.Hello
module Units = Ufork_util.Units

let big_image = Image.redis ~heap_bytes:(8 * 1024 * 1024)

let run_os ?(cores = 4) ?(image = big_image) f =
  let os = Os.boot ~cores () in
  let result = ref None in
  let _ = Os.start os ~image (fun api -> result := Some (f os api)) in
  Os.run os;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "process did not complete"

(* --- Kvstore --- *)

let test_kv_set_get () =
  let v =
    run_os (fun _os api ->
        let kv = Kvstore.create api () in
        Kvstore.set kv ~key:"alpha" ~value:(Bytes.of_string "one");
        Kvstore.set kv ~key:"beta" ~value:(Bytes.of_string "two");
        ( Kvstore.get kv ~key:"alpha",
          Kvstore.get kv ~key:"beta",
          Kvstore.get kv ~key:"gamma",
          Kvstore.count kv ))
  in
  let a, b, g, n = v in
  Alcotest.(check (option string)) "alpha" (Some "one")
    (Option.map Bytes.to_string a);
  Alcotest.(check (option string)) "beta" (Some "two")
    (Option.map Bytes.to_string b);
  Alcotest.(check (option string)) "missing" None (Option.map Bytes.to_string g);
  Alcotest.(check int) "count" 2 n

let test_kv_overwrite () =
  let v, n =
    run_os (fun _os api ->
        let kv = Kvstore.create api () in
        Kvstore.set kv ~key:"k" ~value:(Bytes.of_string "first");
        Kvstore.set kv ~key:"k" ~value:(Bytes.of_string "second value");
        (Kvstore.get kv ~key:"k", Kvstore.count kv))
  in
  Alcotest.(check (option string)) "overwritten" (Some "second value")
    (Option.map Bytes.to_string v);
  Alcotest.(check int) "count unchanged" 1 n

let test_kv_delete () =
  let deleted, missing, n =
    run_os (fun _os api ->
        let kv = Kvstore.create api () in
        Kvstore.set kv ~key:"a" ~value:(Bytes.of_string "1");
        Kvstore.set kv ~key:"b" ~value:(Bytes.of_string "2");
        let d = Kvstore.delete kv ~key:"a" in
        let m = Kvstore.delete kv ~key:"zz" in
        (d, m, Kvstore.count kv))
  in
  Alcotest.(check bool) "deleted" true deleted;
  Alcotest.(check bool) "missing delete" false missing;
  Alcotest.(check int) "count" 1 n

let test_kv_collisions () =
  (* A 1-bucket store forces every key onto one chain. *)
  let ok =
    run_os (fun _os api ->
        let kv = Kvstore.create api ~buckets:1 () in
        for i = 0 to 49 do
          Kvstore.set kv ~key:(Printf.sprintf "k%d" i)
            ~value:(Bytes.of_string (string_of_int i))
        done;
        let all_ok = ref true in
        for i = 0 to 49 do
          match Kvstore.get kv ~key:(Printf.sprintf "k%d" i) with
          | Some v when Bytes.to_string v = string_of_int i -> ()
          | _ -> all_ok := false
        done;
        ignore (Kvstore.delete kv ~key:"k25");
        !all_ok
        && Kvstore.get kv ~key:"k25" = None
        && Kvstore.count kv = 49)
  in
  Alcotest.(check bool) "chained buckets" true ok

let test_kv_iter () =
  let keys =
    run_os (fun _os api ->
        let kv = Kvstore.create api () in
        List.iter
          (fun k -> Kvstore.set kv ~key:k ~value:(Bytes.of_string k))
          [ "x"; "y"; "z" ];
        let acc = ref [] in
        Kvstore.iter kv (fun ~key ~value_len ~read_value ->
            let v = read_value () in
            if Bytes.length v = value_len then acc := key :: !acc);
        List.sort compare !acc)
  in
  Alcotest.(check (list string)) "iterated all" [ "x"; "y"; "z" ] keys

let test_kv_empty_value () =
  let v =
    run_os (fun _os api ->
        let kv = Kvstore.create api () in
        Kvstore.set kv ~key:"empty" ~value:Bytes.empty;
        Kvstore.get kv ~key:"empty")
  in
  Alcotest.(check (option string)) "empty value" (Some "")
    (Option.map Bytes.to_string v)

let test_kv_large_value () =
  let ok =
    run_os (fun _os api ->
        let kv = Kvstore.create api () in
        let v = Bytes.init (300 * 1024) (fun i -> Char.chr (i mod 251)) in
        Kvstore.set kv ~key:"big" ~value:v;
        Kvstore.get kv ~key:"big" = Some v)
  in
  Alcotest.(check bool) "300KB value roundtrip" true ok

let test_kv_rehash () =
  let grown, all_present, n =
    run_os (fun _os api ->
        let kv = Kvstore.create api ~buckets:4 () in
        for i = 0 to 99 do
          Kvstore.set kv ~key:(Printf.sprintf "r%03d" i)
            ~value:(Bytes.of_string (string_of_int (i * i)))
        done;
        let ok = ref true in
        for i = 0 to 99 do
          match Kvstore.get kv ~key:(Printf.sprintf "r%03d" i) with
          | Some v when Bytes.to_string v = string_of_int (i * i) -> ()
          | _ -> ok := false
        done;
        (Kvstore.bucket_count kv > 4, !ok, Kvstore.count kv))
  in
  Alcotest.(check bool) "bucket array grew" true grown;
  Alcotest.(check bool) "all entries survive rehash" true all_present;
  Alcotest.(check int) "count" 100 n

let test_kv_rehash_across_fork () =
  (* A child snapshotting a just-rehashed dict walks the new array. *)
  let ok =
    run_os (fun _os api ->
        let kv = Kvstore.create api ~buckets:2 () in
        for i = 0 to 19 do
          Kvstore.set kv ~key:(Printf.sprintf "f%d" i)
            ~value:(Bytes.of_string (string_of_int i))
        done;
        ignore
          (api.Api.fork (fun capi ->
               let kv' = Kvstore.open_ capi in
               let seen = ref 0 in
               Kvstore.iter kv' (fun ~key:_ ~value_len:_ ~read_value ->
                   ignore (read_value ());
                   incr seen);
               capi.Api.exit (if !seen = 20 then 0 else 1)));
        snd (api.Api.wait ()) = 0)
  in
  Alcotest.(check bool) "forked child walks rehashed dict" true ok

(* Model-based property: the store behaves like a Hashtbl. *)
let prop_kv_model =
  QCheck.Test.make ~name:"kvstore = hashtable model" ~count:30
    QCheck.(
      list_of_size Gen.(1 -- 60)
        (pair (int_range 0 15) (string_of_size Gen.(0 -- 40))))
    (fun ops ->
      run_os (fun _os api ->
          let kv = Kvstore.create api ~buckets:4 () in
          let model = Hashtbl.create 16 in
          List.iter
            (fun (k, v) ->
              let key = Printf.sprintf "key%d" k in
              if String.length v mod 7 = 0 && Hashtbl.mem model key then begin
                ignore (Kvstore.delete kv ~key);
                Hashtbl.remove model key
              end
              else begin
                Kvstore.set kv ~key ~value:(Bytes.of_string v);
                Hashtbl.replace model key v
              end)
            ops;
          Hashtbl.fold
            (fun k v acc ->
              acc
              && Kvstore.get kv ~key:k = Some (Bytes.of_string v))
            model
            (Kvstore.count kv = Hashtbl.length model)))

(* --- Rdb --- *)

let test_rdb_roundtrip () =
  let dump, expected =
    run_os (fun os api ->
        let kv = Kvstore.create api () in
        let entries =
          [ ("k1", "value-one"); ("k2", ""); ("k3", String.make 5000 'z') ]
        in
        List.iter
          (fun (k, v) -> Kvstore.set kv ~key:k ~value:(Bytes.of_string v))
          entries;
        ignore (Rdb.save_to api kv ~path:"/dump.rdb");
        (Vfs.contents (Kernel.vfs (Os.kernel os)) "/dump.rdb", entries))
  in
  let got =
    Rdb.verify dump
    |> List.map (fun (k, v) -> (k, Bytes.to_string v))
    |> List.sort compare
  in
  Alcotest.(check (list (pair string string))) "roundtrip" expected got

let test_rdb_detects_corruption () =
  let dump =
    run_os (fun os api ->
        let kv = Kvstore.create api () in
        Kvstore.set kv ~key:"k" ~value:(Bytes.of_string "vvvv");
        ignore (Rdb.save_to api kv ~path:"/d");
        Vfs.contents (Kernel.vfs (Os.kernel os)) "/d")
  in
  (* Flip a payload byte: checksum must catch it. *)
  let b = Bytes.of_string dump in
  let off = String.length Rdb.magic + 8 + 1 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
  (match Rdb.verify (Bytes.to_string b) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "corruption not detected");
  (* Truncation must be caught too. *)
  match Rdb.verify (String.sub dump 0 (String.length dump - 3)) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "truncation not detected"

let test_rdb_bad_magic () =
  match Rdb.verify "XXXX0000 garbage garbage" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "bad magic accepted"

let test_rdb_bgsave_snapshot_consistency () =
  (* The paper's Redis use-case (U4): the parent keeps mutating while the
     child dumps; the dump must reflect the fork instant. We pin both to
     one core so the parent provably runs between child time slices. *)
  let dump_entries, parent_final =
    run_os ~cores:1 (fun os api ->
        let kv = Kvstore.create api () in
        Kvstore.set kv ~key:"k" ~value:(Bytes.of_string "snapshot");
        ignore
          (api.Api.fork (fun capi ->
               let kv' = Kvstore.open_ capi in
               ignore (Rdb.save_to capi kv' ~path:"/snap");
               capi.Api.exit 0));
        (* Mutate immediately after fork, before the child is scheduled or
           while it copies. *)
        Kvstore.set kv ~key:"k" ~value:(Bytes.of_string "mutated!");
        Kvstore.set kv ~key:"k2" ~value:(Bytes.of_string "new");
        ignore (api.Api.wait ());
        let dump = Vfs.contents (Kernel.vfs (Os.kernel os)) "/snap" in
        ( Rdb.verify dump |> List.map (fun (k, v) -> (k, Bytes.to_string v)),
          Option.map Bytes.to_string (Kvstore.get kv ~key:"k") ))
  in
  Alcotest.(check (list (pair string string)))
    "dump holds the fork-instant state"
    [ ("k", "snapshot") ]
    dump_entries;
  Alcotest.(check (option string)) "parent moved on" (Some "mutated!")
    parent_final

let test_rdb_bgsave_result () =
  let r, exists =
    run_os (fun os api ->
        let kv = Kvstore.create api () in
        Kvstore.set kv ~key:"a" ~value:(Bytes.of_string "b");
        let r = Rdb.bgsave api kv ~path:"/bg" in
        (r, Vfs.exists (Kernel.vfs (Os.kernel os)) "/bg"))
  in
  Alcotest.(check bool) "file exists" true exists;
  Alcotest.(check bool) "latency < total" true
    (r.Rdb.fork_latency_cycles < r.Rdb.total_cycles);
  Alcotest.(check bool) "latency positive" true (r.Rdb.fork_latency_cycles > 0L)

(* A fixed store whose dump crosses several 64 KiB write chunks: values
   of assorted sizes, one empty, one larger than a chunk. *)
let fixed_store_dump () =
  run_os (fun os api ->
      let calls = Buffer.create 256 and recording = ref false in
      let note fmt =
        Printf.ksprintf
          (fun s -> if !recording then Buffer.add_string calls s)
          fmt
      in
      let api =
        {
          api with
          Api.compute =
            (fun c ->
              note "c%Ld;" c;
              api.Api.compute c);
          write =
            (fun fd b ->
              note "w%d;" (Bytes.length b);
              api.Api.write fd b);
        }
      in
      let kv = Kvstore.create api () in
      List.iteri
        (fun i len ->
          Kvstore.set kv
            ~key:(Printf.sprintf "key-%d" i)
            ~value:(Bytes.init len (fun j -> Char.chr ((i * 7 + j) land 0xff))))
        [ 10; 0; 30_000; 70_000; 65_536; 12_345; 100 * 1024 ];
      recording := true;
      ignore (Rdb.save_to api kv ~path:"/fixed.rdb");
      recording := false;
      ( Vfs.contents (Kernel.vfs (Os.kernel os)) "/fixed.rdb",
        Buffer.contents calls ))

(* Digests taken on the serializer that streamed through a growing
   Buffer: the dump bytes, and the sequence of compute charges and write
   sizes it issued. A staging-buffer rewrite must reproduce both. *)
let test_rdb_fixed_dump_unchanged () =
  let dump, calls = fixed_store_dump () in
  Alcotest.(check int) "dump size" 280402 (String.length dump);
  Alcotest.(check string) "dump digest" "fb6a49555c0506b67b8ecdb7ff17fd1c"
    (Digest.to_hex (Digest.string dump));
  Alcotest.(check string) "compute/write call sequence"
    "f273323142f9a668809cdc2c25fe1713"
    (Digest.to_hex (Digest.string calls));
  Alcotest.(check int) "load_count" 7 (Rdb.load_count dump);
  let seen = ref [] in
  let n =
    Rdb.iter_entries dump (fun ~key_off ~klen ~val_off:_ ~vlen ->
        seen := (String.sub dump key_off klen, vlen) :: !seen)
  in
  Alcotest.(check int) "iter_entries count" 7 n;
  Alcotest.(check (list (pair string int)))
    "iter_entries agrees with verify"
    (List.map (fun (k, v) -> (k, Bytes.length v)) (Rdb.verify dump))
    (List.rev !seen)

(* Keyspace.dump_matches against hand-built dumps: the encoder below is
   the file format, so each case differs from a good dump in one way. *)
module Keyspace = Ufork_workload.Keyspace

let encode_dump ?checksum entries =
  let b = Buffer.create 1024 in
  let u32 v = Buffer.add_int32_le b (Int32.of_int v) in
  Buffer.add_string b Rdb.magic;
  let sum = ref 0 in
  List.iter
    (fun (k, v) ->
      let start = Buffer.length b in
      u32 (String.length k);
      u32 (Bytes.length v);
      Buffer.add_string b k;
      Buffer.add_bytes b v;
      String.iter
        (fun c -> sum := (!sum + Char.code c) land 0xffffffff)
        (Buffer.sub b start (Buffer.length b - start)))
    entries;
  u32 0xffffffff;
  u32 (List.length entries);
  u32 (Option.value checksum ~default:!sum);
  Buffer.contents b

let test_dump_matches () =
  let seed = 7L and value_len = 300 and entries = 3 in
  let entry i =
    (Keyspace.key i, Keyspace.value ~seed ~index:i ~len:value_len)
  in
  let matches dump = Keyspace.dump_matches ~entries ~value_len ~seed dump in
  let check name want dump = Alcotest.(check bool) name want (matches dump) in
  check "good dump, any order" true (encode_dump [ entry 2; entry 0; entry 1 ]);
  let flipped =
    let k, v = entry 1 in
    let v = Bytes.copy v in
    Bytes.set v 123 (Char.chr (Char.code (Bytes.get v 123) lxor 1));
    (k, v)
  in
  check "flipped value byte (checksum recomputed)" false
    (encode_dump [ entry 0; flipped; entry 2 ]);
  let good = encode_dump [ entry 0; entry 1; entry 2 ] in
  let corrupt = Bytes.of_string good in
  Bytes.set corrupt 40 (Char.chr (Char.code (Bytes.get corrupt 40) lxor 1));
  check "flipped value byte (stale checksum)" false (Bytes.to_string corrupt);
  check "duplicated key" false (encode_dump [ entry 0; entry 1; entry 1 ]);
  check "missing key" false (encode_dump [ entry 0; entry 2 ]);
  check "key out of range" false (encode_dump [ entry 0; entry 1; entry 3 ]);
  check "short value" false
    (encode_dump
       [ entry 0; entry 1; (Keyspace.key 2, Bytes.sub (snd (entry 2)) 0 299) ]);
  check "bad checksum" false
    (encode_dump ~checksum:12345 [ entry 0; entry 1; entry 2 ]);
  check "not a dump" false "garbage"

(* --- Aof --- *)

module Aof = Ufork_apps.Aof

let test_aof_roundtrip () =
  let ok =
    run_os (fun _os api ->
        let kv = Kvstore.create api () in
        let log = Aof.open_log api ~path:"/a.aof" in
        Aof.log_set log ~key:"x" ~value:(Bytes.of_string "1");
        Aof.log_set log ~key:"y" ~value:(Bytes.of_string "22");
        Aof.log_set log ~key:"x" ~value:(Bytes.of_string "333");
        Aof.log_delete log ~key:"y";
        Aof.close log;
        let applied, clean = Aof.replay api kv ~path:"/a.aof" in
        applied = 4 && clean
        && Kvstore.get kv ~key:"x" = Some (Bytes.of_string "333")
        && Kvstore.get kv ~key:"y" = None
        && Kvstore.count kv = 1)
  in
  Alcotest.(check bool) "log replay gives final state" true ok

let test_aof_truncated_tail () =
  let applied, clean =
    run_os (fun os api ->
        let kv = Kvstore.create api () in
        let log = Aof.open_log api ~path:"/t.aof" in
        Aof.log_set log ~key:"a" ~value:(Bytes.of_string "one");
        Aof.log_set log ~key:"b" ~value:(Bytes.of_string "two");
        Aof.close log;
        (* Chop mid-record, as a crash during append would. *)
        let vfs = Kernel.vfs (Os.kernel os) in
        let full = Vfs.contents vfs "/t.aof" in
        Vfs.put vfs "/t.aof" (String.sub full 0 (String.length full - 2));
        Aof.replay api kv ~path:"/t.aof")
  in
  Alcotest.(check int) "first record applied" 1 applied;
  Alcotest.(check bool) "flagged unclean" false clean

let test_aof_bgrewrite_compacts () =
  let ok =
    run_os (fun os api ->
        let kv = Kvstore.create api () in
        let log = Aof.open_log api ~path:"/c.aof" in
        (* Churn: many overwrites, so the live set is much smaller than
           the log. *)
        for i = 0 to 49 do
          let key = Printf.sprintf "k%d" (i mod 5) in
          let value = Bytes.of_string (string_of_int i) in
          Kvstore.set kv ~key ~value;
          Aof.log_set log ~key ~value
        done;
        Aof.close log;
        let vfs = Kernel.vfs (Os.kernel os) in
        let before = Vfs.size vfs "/c.aof" in
        ignore (Aof.bgrewrite api kv ~path:"/c.aof");
        let after = Vfs.size vfs "/c.aof" in
        (* Rewritten log is much smaller and replays to the same state. *)
        let kv2_ok =
          let fresh = Kvstore.create api ~buckets:64 () in
          (* note: fresh store steals the GOT slot; fine inside one test *)
          let applied, clean = Aof.replay api fresh ~path:"/c.aof" in
          applied = 5 && clean
          && List.for_all
               (fun i ->
                 let key = Printf.sprintf "k%d" i in
                 Kvstore.get fresh ~key = Kvstore.get kv ~key)
               [ 0; 1; 2; 3; 4 ]
        in
        after < before / 3 && kv2_ok)
  in
  Alcotest.(check bool) "bgrewrite compacts and preserves" true ok

let test_aof_rewrite_snapshot_isolated () =
  (* Parent mutates while the rewrite child walks its snapshot: the
     rewritten log reflects the fork instant. *)
  let ok =
    run_os ~cores:1 (fun os api ->
        let kv = Kvstore.create api () in
        Kvstore.set kv ~key:"k" ~value:(Bytes.of_string "old");
        ignore
          (api.Api.fork (fun capi ->
               let kv' = Kvstore.open_ capi in
               let log = Aof.open_log capi ~path:"/s.aof.rw" in
               Kvstore.iter kv' (fun ~key ~value_len:_ ~read_value ->
                   Aof.log_set log ~key ~value:(read_value ()));
               Aof.close log;
               capi.Api.rename ~src:"/s.aof.rw" ~dst:"/s.aof";
               capi.Api.exit 0));
        Kvstore.set kv ~key:"k" ~value:(Bytes.of_string "new");
        ignore (api.Api.wait ());
        let vfs = Kernel.vfs (Os.kernel os) in
        let contents = Vfs.contents vfs "/s.aof" in
        (* The log must carry the fork-instant value. *)
        let has_old = ref false and has_new = ref false in
        for i = 0 to String.length contents - 3 do
          if String.sub contents i 3 = "old" then has_old := true;
          if String.sub contents i 3 = "new" then has_new := true
        done;
        !has_old && not !has_new)
  in
  Alcotest.(check bool) "rewrite sees fork-instant state" true ok

let test_pipe_throughput_positive () =
  let rate =
    run_os ~image:Image.hello (fun _os api ->
        Unixbench.pipe_throughput api ~iterations:1000)
  in
  (* ~2 syscalls + ~1 kB of copies per loop: hundreds of kloops/s. *)
  Alcotest.(check bool) "rate plausible" true (rate > 1e5 && rate < 1e7)

(* --- Mpy --- *)

let test_mpy_float_operation_value () =
  (* The interpreter must compute the same value as a direct evaluation. *)
  let n = 50 in
  let got = run_os (fun _os api -> Mpy.run api (Mpy.float_operation ~n)) in
  let expected =
    let acc = ref 0.0 in
    for i = n downto 1 do
      let fi = float_of_int i in
      acc := sqrt fi *. sin fi +. cos !acc +. !acc
    done;
    !acc
  in
  Alcotest.(check bool) "matches direct evaluation" true
    (Float.abs (got -. expected) <= 1e-9 *. Float.max 1.0 (Float.abs expected))

let test_mpy_charges_cycles () =
  let dt =
    run_os (fun _os api ->
        let t0 = api.Api.now () in
        ignore (Mpy.run api (Mpy.float_operation ~n:100));
        Int64.sub (api.Api.now ()) t0)
  in
  let est = Mpy.estimated_cycles (Mpy.float_operation ~n:100) in
  Alcotest.(check bool) "charged ~ estimate" true
    (Int64.abs (Int64.sub dt est) < Int64.div est 10L)

let test_mpy_stack_underflow () =
  let raised =
    run_os (fun _os api ->
        match Mpy.run api [| Mpy.Add; Mpy.Halt |] with
        | exception Mpy.Runtime_error _ -> true
        | _ -> false)
  in
  Alcotest.(check bool) "underflow" true raised

let test_mpy_div_zero () =
  let raised =
    run_os (fun _os api ->
        match
          Mpy.run api [| Mpy.Push 1.0; Mpy.Push 0.0; Mpy.Div; Mpy.Halt |]
        with
        | exception Mpy.Runtime_error _ -> true
        | _ -> false)
  in
  Alcotest.(check bool) "div by zero" true raised

let test_mpy_bad_local () =
  let raised =
    run_os (fun _os api ->
        match Mpy.run api ~locals:2 [| Mpy.Load 5; Mpy.Halt |] with
        | exception Mpy.Runtime_error _ -> true
        | _ -> false)
  in
  Alcotest.(check bool) "bad local" true raised

let test_mpy_basic_ops () =
  let v =
    run_os (fun _os api ->
        Mpy.run api
          [|
            Mpy.Push 3.0; Mpy.Push 4.0; Mpy.Mul; Mpy.Push 2.0; Mpy.Sub;
            Mpy.Dup; Mpy.Add; Mpy.Halt;
          |])
  in
  Alcotest.(check bool) "(3*4-2)*2 = 20" true (Float.abs (v -. 20.) < 1e-9)

let test_mpy_matmul_value () =
  let n = 4 in
  let got =
    run_os (fun _os api ->
        Mpy.run api ~locals:(Mpy.matmul_locals ~n) (Mpy.matmul ~n))
  in
  (* Direct evaluation with the same inputs. *)
  let a i j = (float_of_int ((i * n) + j) *. 0.01) +. 0.5 in
  let b i j = (float_of_int ((j * n) + i) *. 0.02) -. 0.25 in
  let expected = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        acc := !acc +. (a i k *. b k j)
      done;
      expected := !expected +. !acc
    done
  done;
  Alcotest.(check bool) "matmul checksum" true
    (Float.abs (got -. !expected) < 1e-9 *. Float.max 1.0 (Float.abs !expected))

let test_mpy_linpack_value () =
  let n = 8 in
  let got =
    run_os (fun _os api ->
        Mpy.run api ~locals:(Mpy.linpack_locals ~n) (Mpy.linpack ~n))
  in
  let x = Array.init n (fun i -> (float_of_int i *. 0.003) +. 1.0) in
  let y = Array.init n (fun i -> (float_of_int i *. 0.007) -. 0.5) in
  for rep = 1 to n do
    let a = 0.5 +. (float_of_int rep *. 0.1) in
    for i = 0 to n - 1 do
      y.(i) <- y.(i) +. (a *. x.(i))
    done
  done;
  let expected = Array.fold_left ( +. ) 0.0 y in
  Alcotest.(check bool) "linpack checksum" true
    (Float.abs (got -. expected) < 1e-9 *. Float.max 1.0 (Float.abs expected))

let test_mpy_store_idx_bounds () =
  let raised =
    run_os (fun _os api ->
        match
          Mpy.run api ~locals:4
            [| Mpy.Push 1.0; Mpy.Push 99.0; Mpy.Store_idx; Mpy.Halt |]
        with
        | exception Mpy.Runtime_error _ -> true
        | _ -> false)
  in
  Alcotest.(check bool) "indexed store checked" true raised

(* The interpreter's operand stack is unboxed: a run allocates its
   locals and stack once, whatever the instruction count. *)
let test_mpy_run_allocation () =
  let words n =
    run_os (fun _os api ->
        let api = { api with Api.compute = (fun _ -> ()) } in
        Test_mem.allocated_words (fun () ->
            ignore (Mpy.run api (Mpy.float_operation ~n))))
  in
  let w1000 = words 1000 and w4000 = words 4000 in
  Alcotest.(check bool)
    (Printf.sprintf "%d words for 17k instructions <= 256" w1000)
    true (w1000 <= 256);
  Alcotest.(check int) "independent of instruction count" w1000 w4000

(* [estimated_cycles] runs the same loop as [run], so it predicts the
   charged cycles exactly, including for indexed programs whose locals
   exceed any default. *)
let test_mpy_estimate_exact () =
  let n = 37 in
  let locals = Mpy.matmul_locals ~n and program = Mpy.matmul ~n in
  let charged =
    run_os (fun _os api ->
        let total = ref 0L in
        let api =
          { api with Api.compute = (fun c -> total := Int64.add !total c) }
        in
        ignore (Mpy.run api ~locals program);
        !total)
  in
  Alcotest.(check int64) "estimate = charged" charged
    (Mpy.estimated_cycles ~locals program)

let test_zygote_roundtrip () =
  let n =
    run_os ~image:Image.micropython (fun _os api ->
        Mpy.zygote_init api ~modules:8;
        Mpy.zygote_check api)
  in
  Alcotest.(check int) "modules" 8 n

let test_zygote_fork_check () =
  let status =
    run_os ~image:Image.micropython (fun _os api ->
        Mpy.zygote_init api ~modules:8;
        ignore
          (api.Api.fork (fun capi ->
               capi.Api.exit (if Mpy.zygote_check capi = 8 then 0 else 1)));
        snd (api.Api.wait ()))
  in
  Alcotest.(check int) "forked runtime valid" 0 status

(* --- Faas --- *)

let test_faas_counts () =
  let r =
    run_os ~cores:3 ~image:Image.micropython (fun _os api ->
        Faas.coordinator api ~max_workers:2
          ~window_cycles:(Units.cycles_of_s 0.05)
          ~program:(Mpy.float_operation ~n:200))
  in
  Alcotest.(check bool) "some functions ran" true (r.Faas.completed > 10);
  Alcotest.(check bool) "forks >= completions" true
    (r.Faas.forks >= r.Faas.completed);
  Alcotest.(check bool) "throughput consistent" true
    (Float.abs
       (r.Faas.throughput_per_s -. (float_of_int r.Faas.completed /. 0.05))
    < 1.0)

(* --- Httpd --- *)

let test_httpd_end_to_end () =
  let os = Os.boot ~cores:1 () in
  Httpd.populate_docroot (Kernel.vfs (Os.kernel os));
  let net = Httpd.Net.create () in
  let window = Units.cycles_of_s 0.02 in
  let u =
    Os.start os ~image:Image.nginx (fun api ->
        Httpd.master api ~net ~listen_rfd:3 ~listen_wfd:4 ~workers:2
          ~window_cycles:window)
  in
  let p = Httpd.Net.listen_pipe net in
  let rfd = Fdesc.Fdtable.alloc u.Uproc.fds (Fdesc.Pipe_read p) in
  let wfd = Fdesc.Fdtable.alloc u.Uproc.fds (Fdesc.Pipe_write p) in
  Alcotest.(check (pair int int)) "fds" (3, 4) (rfd, wfd);
  Httpd.Net.spawn_clients (Os.engine os) net ~connections:4
    ~window_cycles:window;
  Os.run os;
  let stats = Httpd.Net.stats net in
  Alcotest.(check bool) "served requests" true (stats.Httpd.Net.completed > 50);
  Alcotest.(check bool) "completed <= sent" true
    (stats.Httpd.Net.completed <= stats.Httpd.Net.sent)

(* Worker-count scaling on one core is asserted in test_integration. *)

(* --- Unixbench --- *)

let test_spawn_runs () =
  let cycles =
    run_os ~image:Image.hello (fun _os api ->
        Unixbench.spawn api ~iterations:20)
  in
  Alcotest.(check bool) "time accumulated" true (cycles > 0L);
  (* ~20 forks at ~55us each. *)
  let ms = Units.ms_of_cycles cycles in
  Alcotest.(check bool) "plausible range" true (ms > 0.5 && ms < 10.)

let test_context1_correct () =
  let r =
    run_os ~image:Image.hello (fun _os api ->
        Unixbench.context1 api ~iterations:500)
  in
  Alcotest.(check int) "iterations" 500 r.Unixbench.iterations;
  Alcotest.(check bool) "per switch in 1-10us" true
    (r.Unixbench.per_switch_cycles > 2500.
    && r.Unixbench.per_switch_cycles < 25000.)

(* --- Hello --- *)

let test_hello_fork_once () =
  let s =
    run_os ~image:Image.hello (fun _os api ->
        let s = Hello.fork_once api in
        Hello.reap api;
        s)
  in
  Alcotest.(check bool) "latency > 0" true (s.Hello.latency_cycles > 0L);
  Alcotest.(check bool) "child pid" true (s.Hello.child_pid > 1)

let test_hello_main () =
  run_os ~image:Image.hello (fun _os api -> Hello.main api)

let qt = QCheck_alcotest.to_alcotest

let suite =
  [
    ("kv set/get", `Quick, test_kv_set_get);
    ("kv overwrite", `Quick, test_kv_overwrite);
    ("kv delete", `Quick, test_kv_delete);
    ("kv collisions", `Quick, test_kv_collisions);
    ("kv iter", `Quick, test_kv_iter);
    ("kv empty value", `Quick, test_kv_empty_value);
    ("kv large value", `Quick, test_kv_large_value);
    ("kv rehash", `Quick, test_kv_rehash);
    ("kv rehash across fork", `Quick, test_kv_rehash_across_fork);
    ("rdb roundtrip", `Quick, test_rdb_roundtrip);
    ("rdb corruption", `Quick, test_rdb_detects_corruption);
    ("rdb bad magic", `Quick, test_rdb_bad_magic);
    ("rdb fixed dump unchanged", `Quick, test_rdb_fixed_dump_unchanged);
    ("keyspace dump_matches", `Quick, test_dump_matches);
    ("rdb snapshot consistency", `Quick, test_rdb_bgsave_snapshot_consistency);
    ("rdb bgsave result", `Quick, test_rdb_bgsave_result);
    ("aof roundtrip", `Quick, test_aof_roundtrip);
    ("aof truncated tail", `Quick, test_aof_truncated_tail);
    ("aof bgrewrite compacts", `Quick, test_aof_bgrewrite_compacts);
    ("aof rewrite snapshot", `Quick, test_aof_rewrite_snapshot_isolated);
    ("pipe throughput", `Quick, test_pipe_throughput_positive);
    ("mpy float_operation value", `Quick, test_mpy_float_operation_value);
    ("mpy charges cycles", `Quick, test_mpy_charges_cycles);
    ("mpy stack underflow", `Quick, test_mpy_stack_underflow);
    ("mpy div zero", `Quick, test_mpy_div_zero);
    ("mpy bad local", `Quick, test_mpy_bad_local);
    ("mpy basic ops", `Quick, test_mpy_basic_ops);
    ("mpy matmul value", `Quick, test_mpy_matmul_value);
    ("mpy linpack value", `Quick, test_mpy_linpack_value);
    ("mpy indexed bounds", `Quick, test_mpy_store_idx_bounds);
    ("mpy run allocates O(1) words", `Quick, test_mpy_run_allocation);
    ("mpy estimate is exact", `Quick, test_mpy_estimate_exact);
    ("zygote roundtrip", `Quick, test_zygote_roundtrip);
    ("zygote fork check", `Quick, test_zygote_fork_check);
    ("faas counts", `Quick, test_faas_counts);
    ("httpd end to end", `Quick, test_httpd_end_to_end);
    ("spawn runs", `Quick, test_spawn_runs);
    ("context1 correct", `Quick, test_context1_correct);
    ("hello fork once", `Quick, test_hello_fork_once);
    ("hello main", `Quick, test_hello_main);
    qt prop_kv_model;
  ]
