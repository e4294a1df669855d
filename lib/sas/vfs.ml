(* File bytes live in fixed [block_size] blocks, so growing a file never
   copies what it already holds. A small file has one first block that
   doubles from 256 B up to [block_size]; past that, blocks are appended
   whole. Capacity is [Bytes.length blocks.(0)] while [nblocks = 1], and
   [nblocks * block_size] after. *)
let block_size = 64 * 1024

type node = {
  mutable blocks : Bytes.t array;  (* first [nblocks] are in use *)
  mutable nblocks : int;
  mutable len : int;
}

type t = (string, node) Hashtbl.t

type file = { node : node; mutable cursor : int; mutable open_ : bool }

let create () = Hashtbl.create 16

let node_get t name =
  match Hashtbl.find_opt t name with
  | Some n -> n
  | None -> raise Not_found

let node_create t name =
  let n = { blocks = [| Bytes.create 256 |]; nblocks = 1; len = 0 } in
  Hashtbl.replace t name n;
  n

let open_ t name mode =
  match mode with
  | `Read -> { node = node_get t name; cursor = 0; open_ = true }
  | `Write -> { node = node_get t name; cursor = 0; open_ = true }
  | `Create ->
      let n = node_create t name in
      { node = n; cursor = 0; open_ = true }
  | `Append ->
      let n =
        match Hashtbl.find_opt t name with
        | Some n -> n
        | None -> node_create t name
      in
      { node = n; cursor = n.len; open_ = true }

let check f = if not f.open_ then invalid_arg "Vfs: file is closed"

(* Apply [f block ~off ~pos ~len] to each block fragment of the file
   range [at, at+len); [pos] is the fragment's offset within the range. *)
let iter_span node ~at ~len f =
  let pos = ref 0 in
  while !pos < len do
    let a = at + !pos in
    let off = a mod block_size in
    let n = min (len - !pos) (block_size - off) in
    f node.blocks.(a / block_size) ~off ~pos:!pos ~len:n;
    pos := !pos + n
  done

(* [len] file bytes from [at], in one exact-size buffer. *)
let copy_out node ~at ~len =
  let out = Bytes.create len in
  iter_span node ~at ~len (fun blk ~off ~pos ~len ->
      Bytes.blit blk off out pos len);
  out

let read f n =
  check f;
  let avail = max 0 (f.node.len - f.cursor) in
  let k = min n avail in
  let out = copy_out f.node ~at:f.cursor ~len:k in
  f.cursor <- f.cursor + k;
  out

let grow_first node cap =
  let b0 = node.blocks.(0) in
  let d = Bytes.create cap in
  Bytes.blit b0 0 d 0 node.len;
  node.blocks.(0) <- d

let ensure node cap =
  let b0 = Bytes.length node.blocks.(0) in
  if cap <= block_size then begin
    if b0 < cap then grow_first node (min block_size (max cap (2 * b0)))
  end
  else begin
    if b0 < block_size then grow_first node block_size;
    let need = (cap + block_size - 1) / block_size in
    if need > Array.length node.blocks then begin
      let grown = max need (2 * Array.length node.blocks) in
      let a = Array.make grown Bytes.empty in
      Array.blit node.blocks 0 a 0 node.nblocks;
      node.blocks <- a
    end;
    for i = node.nblocks to need - 1 do
      node.blocks.(i) <- Bytes.create block_size
    done;
    node.nblocks <- max node.nblocks need
  end

let write f b =
  check f;
  let n = Bytes.length b in
  let node = f.node in
  ensure node (f.cursor + n);
  (* A write past EOF leaves a hole that reads back as zeros. *)
  if f.cursor > node.len then
    iter_span node ~at:node.len ~len:(f.cursor - node.len)
      (fun blk ~off ~pos:_ ~len -> Bytes.fill blk off len '\000');
  iter_span node ~at:f.cursor ~len:n (fun blk ~off ~pos ~len ->
      Bytes.blit b pos blk off len);
  f.cursor <- f.cursor + n;
  if f.cursor > node.len then node.len <- f.cursor;
  n

let seek f pos =
  check f;
  if pos < 0 then invalid_arg "Vfs.seek";
  f.cursor <- pos

let size_of f = f.node.len
let close f = f.open_ <- false

let exists t name = Hashtbl.mem t name
let size t name = (node_get t name).len
let contents t name =
  let n = node_get t name in
  Bytes.unsafe_to_string (copy_out n ~at:0 ~len:n.len)

let put t name s =
  let n = node_create t name in
  let len = String.length s in
  ensure n len;
  iter_span n ~at:0 ~len (fun blk ~off ~pos ~len ->
      Bytes.blit_string s pos blk off len);
  n.len <- len

let rename t ~src ~dst =
  let n = node_get t src in
  Hashtbl.remove t src;
  Hashtbl.replace t dst n

let unlink t name =
  if not (Hashtbl.mem t name) then raise Not_found;
  Hashtbl.remove t name

let list t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort compare
