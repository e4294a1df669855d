type t = { bits : Bytes.t; length : int }

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { bits = Bytes.make ((n + 7) / 8) '\000'; length = n }

let length t = t.length

let check t i =
  if i < 0 || i >= t.length then invalid_arg "Bitset: index out of bounds"

let get t i =
  check t i;
  Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check t i;
  let b = Char.code (Bytes.get t.bits (i lsr 3)) in
  Bytes.set t.bits (i lsr 3) (Char.chr (b lor (1 lsl (i land 7))))

let clear t i =
  check t i;
  let b = Char.code (Bytes.get t.bits (i lsr 3)) in
  Bytes.set t.bits (i lsr 3) (Char.chr (b land lnot (1 lsl (i land 7)) land 0xff))

let clear_all t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

let copy_into ~src ~dst =
  if src.length <> dst.length then invalid_arg "Bitset.copy_into: length";
  Bytes.blit src.bits 0 dst.bits 0 (Bytes.length src.bits)

let popcount_byte = Array.init 256 (fun b ->
    let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
    go b 0)

let count t =
  let acc = ref 0 in
  for i = 0 to Bytes.length t.bits - 1 do
    acc := !acc + popcount_byte.(Char.code (Bytes.get t.bits i))
  done;
  !acc

let iter_set t f =
  for byte = 0 to Bytes.length t.bits - 1 do
    let b = Char.code (Bytes.get t.bits byte) in
    if b <> 0 then
      for bit = 0 to 7 do
        if b land (1 lsl bit) <> 0 then begin
          let i = (byte lsl 3) lor bit in
          if i < t.length then f i
        end
      done
  done

let any t =
  let rec go i =
    if i >= Bytes.length t.bits then false
    else if Bytes.get t.bits i <> '\000' then true
    else go (i + 1)
  in
  go 0
