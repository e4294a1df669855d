module Sync = Ufork_sim.Sync

exception Broken_pipe

type write_result = Wrote of int | Would_block
type read_result = Data of bytes | Eof | Empty

type t = {
  capacity : int;
  buf : Buffer.t;
  readable : Sync.Cond.t;
  writable : Sync.Cond.t;
  mutable read_open : bool;
  mutable write_open : bool;
}

let create ?(capacity = 64 * 1024) () =
  if capacity <= 0 then invalid_arg "Pipe.create";
  {
    capacity;
    buf = Buffer.create 256;
    readable = Sync.Cond.create ();
    writable = Sync.Cond.create ();
    read_open = true;
    write_open = true;
  }

let capacity t = t.capacity

let try_write t b =
  if not t.read_open then raise Broken_pipe;
  let room = t.capacity - Buffer.length t.buf in
  if room <= 0 then Would_block
  else begin
    let n = min room (Bytes.length b) in
    Buffer.add_subbytes t.buf b 0 n;
    Sync.Cond.broadcast t.readable;
    Wrote n
  end

let try_read t n =
  if n < 0 then invalid_arg "Pipe.try_read";
  let avail = Buffer.length t.buf in
  if avail = 0 then if t.write_open then Empty else Eof
  else begin
    let k = min n avail in
    let out = Bytes.of_string (Buffer.sub t.buf 0 k) in
    let rest = Buffer.sub t.buf k (avail - k) in
    Buffer.clear t.buf;
    Buffer.add_string t.buf rest;
    Sync.Cond.broadcast t.writable;
    Data out
  end

let readable t = t.readable
let writable t = t.writable

let close_read t =
  t.read_open <- false;
  Sync.Cond.broadcast t.writable

let close_write t =
  t.write_open <- false;
  Sync.Cond.broadcast t.readable

let read_open t = t.read_open
let write_open t = t.write_open
