module Prng = Ufork_util.Prng
module Bitset = Ufork_util.Bitset

let key i = Printf.sprintf "key:%08d" i

let value ~seed ~index ~len =
  let g = Prng.create ~seed:(Int64.add seed (Int64.of_int (index * 2654435761))) in
  let block = Prng.bytes g 64 in
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let n = min 64 (len - !pos) in
    Bytes.blit block 0 out !pos n;
    pos := !pos + n
  done;
  out

let populate store ~entries ~value_len ~seed =
  for i = 0 to entries - 1 do
    Ufork_apps.Kvstore.set store ~key:(key i)
      ~value:(value ~seed ~index:i ~len:value_len)
  done

let expected_entries ~entries ~value_len ~seed =
  List.init entries (fun i -> (key i, value ~seed ~index:i ~len:value_len))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* [s] equals [contents.[off..off+len)], compared 8 bytes at a time. *)
let equal_at contents ~off ~len s =
  len = String.length s
  && off + len <= String.length contents
  &&
  let rec words i =
    if i + 8 > len then bytes i
    else
      Int64.equal
        (String.get_int64_le contents (off + i))
        (String.get_int64_le s i)
      && words (i + 8)
  and bytes i =
    i = len || (contents.[off + i] = s.[i] && bytes (i + 1))
  in
  words 0

let dump_matches ~entries ~value_len ~seed contents =
  let seen = Bitset.create entries in
  let index_of ~off ~len =
    let digits = String.length "key:" in
    if len <= digits then None
    else
      match
        int_of_string_opt (String.sub contents (off + digits) (len - digits))
      with
      | Some i when i >= 0 && i < entries && equal_at contents ~off ~len (key i)
        ->
          Some i
      | _ -> None
  in
  let check ~key_off ~klen ~val_off ~vlen =
    match index_of ~off:key_off ~len:klen with
    | Some i
      when (not (Bitset.get seen i))
           && equal_at contents ~off:val_off ~len:vlen
                (Bytes.unsafe_to_string (value ~seed ~index:i ~len:value_len))
      ->
        Bitset.set seen i
    | _ -> raise Exit
  in
  match Ufork_apps.Rdb.iter_entries contents check with
  | count -> count = entries
  | exception (Failure _ | Exit) -> false

let db_sizes_of_paper =
  [
    ("100 KB", 1, 100 * 1024);
    ("1 MB", 10, 100 * 1024);
    ("10 MB", 100, 100 * 1024);
    ("100 MB", 1000, 100 * 1024);
  ]

let db_sizes_extended = db_sizes_of_paper @ [ ("1 GB", 10_000, 100 * 1024) ]
