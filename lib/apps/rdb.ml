module Api = Ufork_sas.Api

let magic = "USDB0001"

(* Fixed bookkeeping a BGSAVE performs besides moving bytes: dict-scan
   setup, status logging, temp-file naming. Identical on every OS (it is
   application compute). *)
let bgsave_fixed_compute = 500_000L

(* Serialization work per payload byte (format conversion + checksum). *)
let serialize_cost len = Int64.of_int (len + (len / 2) + (len / 20))

let chunk = 64 * 1024

(* Byte sum of [b.[pos..pos+len)], the dump's checksum arithmetic. *)
let sum_bytes b ~pos ~len acc =
  let s = ref acc in
  for i = pos to pos + len - 1 do
    s := !s + Char.code (Bytes.unsafe_get b i)
  done;
  !s land 0xffffffff

let save_to (api : Api.t) store ~path =
  let tmp = path ^ ".tmp" in
  let fd = api.Api.open_ tmp `Create in
  let written = ref 0 in
  let checksum = ref 0 in
  (* One staging chunk: each write hands the kernel exactly [chunk] bytes
     (the last one, the remainder), at the same boundaries as streaming
     the whole dump through a buffer. *)
  let stage = Bytes.create chunk and staged = ref 0 in
  let flush () =
    let b = if !staged = chunk then stage else Bytes.sub stage 0 !staged in
    written := !written + api.Api.write fd b;
    staged := 0
  in
  let append src ~pos ~len =
    let pos = ref pos and left = ref len in
    while !left > 0 do
      let n = min !left (chunk - !staged) in
      Bytes.blit src !pos stage !staged n;
      staged := !staged + n;
      pos := !pos + n;
      left := !left - n;
      if !staged = chunk then flush ()
    done
  in
  let emit src ~pos ~len =
    checksum := sum_bytes src ~pos ~len !checksum;
    api.Api.compute (serialize_cost len);
    append src ~pos ~len
  in
  let u32s = Bytes.create 12 in
  let emit_u32s vs =
    List.iteri (fun i v -> Bytes.set_int32_le u32s (4 * i) (Int32.of_int v)) vs;
    emit u32s ~pos:0 ~len:(4 * List.length vs)
  in
  api.Api.compute bgsave_fixed_compute;
  (* The rio output buffer: real Redis allocates it per save; on CheriBSD
     this first allocation in the forked child is what re-dirties the
     allocator arena (Fig. 5). *)
  let iobuf = api.Api.malloc chunk in
  (* The magic is neither charged nor checksummed. *)
  append (Bytes.unsafe_of_string magic) ~pos:0 ~len:(String.length magic);
  let entries = ref 0 in
  Kvstore.iter store (fun ~key ~value_len:_ ~read_value ->
      incr entries;
      let value = read_value () in
      emit_u32s [ String.length key; Bytes.length value ];
      emit (Bytes.unsafe_of_string key) ~pos:0 ~len:(String.length key);
      emit value ~pos:0 ~len:(Bytes.length value));
  emit_u32s [ 0xffffffff; !entries; !checksum ];
  if !staged > 0 then flush ();
  api.Api.close fd;
  api.Api.rename ~src:tmp ~dst:path;
  api.Api.free iobuf;
  !written

type bgsave_result = {
  fork_latency_cycles : int64;
  total_cycles : int64;
  child_pid : int;
}

let bgsave (api : Api.t) _store ~path =
  let t0 = api.Api.now () in
  let child_pid =
    api.Api.fork (fun capi ->
        let store' = Kvstore.open_ capi in
        let n = save_to capi store' ~path in
        capi.Api.exit (if n > 0 then 0 else 1))
  in
  let fork_latency_cycles = Int64.sub (api.Api.now ()) t0 in
  let rec wait_for () =
    let pid, _status = api.Api.wait () in
    if pid = child_pid then () else wait_for ()
  in
  wait_for ();
  let total_cycles = Int64.sub (api.Api.now ()) t0 in
  { fork_latency_cycles; total_cycles; child_pid }

(* Host-side parsing for verification. *)

let get_u32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let iter_entries contents f =
  let fail fmt = Printf.ksprintf failwith fmt in
  let len = String.length contents in
  let mlen = String.length magic in
  if len < mlen + 12 then fail "rdb: truncated";
  if not (String.starts_with ~prefix:magic contents) then fail "rdb: bad magic";
  let bytes = Bytes.unsafe_of_string contents in
  let rec loop pos checksum count =
    if pos + 4 > len then fail "rdb: truncated at %d" pos;
    let klen = get_u32 contents pos in
    if klen = 0xffffffff then begin
      (* Footer: end marker, entry count, checksum of everything before. *)
      if pos + 12 > len then fail "rdb: truncated footer";
      if get_u32 contents (pos + 4) <> count then
        fail "rdb: entry count mismatch";
      if get_u32 contents (pos + 8) <> checksum then fail "rdb: bad checksum";
      count
    end
    else begin
      if pos + 8 > len then fail "rdb: truncated header";
      let vlen = get_u32 contents (pos + 4) in
      let key_off = pos + 8 in
      let val_off = key_off + klen in
      if val_off + vlen > len then fail "rdb: truncated entry";
      f ~key_off ~klen ~val_off ~vlen;
      let next = val_off + vlen in
      loop next (sum_bytes bytes ~pos ~len:(next - pos) checksum) (count + 1)
    end
  in
  loop mlen 0 0

let verify contents =
  let entries = ref [] in
  let bytes = Bytes.unsafe_of_string contents in
  ignore
    (iter_entries contents (fun ~key_off ~klen ~val_off ~vlen ->
         entries :=
           (String.sub contents key_off klen, Bytes.sub bytes val_off vlen)
           :: !entries));
  List.rev !entries

let load_count contents =
  iter_entries contents (fun ~key_off:_ ~klen:_ ~val_off:_ ~vlen:_ -> ())
