module Hb = Ufork_util.Hb

type t = { id : int; phys : Phys.t; entries : (int, Pte.t) Hashtbl.t }

(* Table identity for the happens-before bus: PTE mutations are
   published per (table, vpn) so the race detector can pair conflicting
   accesses. Ids count per frame pool, i.e. per machine. *)
let create phys =
  { id = Phys.fresh_table_id phys; phys; entries = Hashtbl.create 1024 }

let phys t = t.phys
let id t = t.id

let note t vpn site =
  let bus = Phys.bus t.phys in
  if Hb.on bus then
    Hb.emit bus
      (Hb.Write { tid = Hb.tid bus; loc = Hb.Pte { table = t.id; vpn }; site })

let map t ~vpn pte =
  if Hashtbl.mem t.entries vpn then
    invalid_arg (Printf.sprintf "Page_table.map: vpn %#x already mapped" vpn);
  note t vpn "Page_table.map";
  Hashtbl.replace t.entries vpn pte

let map_shared t ~vpn pte =
  Phys.retain t.phys pte.Pte.frame;
  map t ~vpn pte

let unmap t ~vpn =
  match Hashtbl.find_opt t.entries vpn with
  | None ->
      invalid_arg (Printf.sprintf "Page_table.unmap: vpn %#x not mapped" vpn)
  | Some pte ->
      note t vpn "Page_table.unmap";
      Phys.release t.phys pte.Pte.frame;
      Hashtbl.remove t.entries vpn

let unmap_range t ~vpn ~count =
  for v = vpn to vpn + count - 1 do
    if Hashtbl.mem t.entries v then unmap t ~vpn:v
  done

let lookup t ~vpn = Hashtbl.find_opt t.entries vpn
let lookup_exn t ~vpn =
  match lookup t ~vpn with Some p -> p | None -> raise Not_found

let is_mapped t ~vpn = Hashtbl.mem t.entries vpn

let replace_frame t ~vpn frame =
  match Hashtbl.find_opt t.entries vpn with
  | None ->
      invalid_arg
        (Printf.sprintf "Page_table.replace_frame: vpn %#x not mapped" vpn)
  | Some pte ->
      note t vpn "Page_table.replace_frame";
      Phys.release t.phys pte.Pte.frame;
      pte.Pte.frame <- frame

let iter_range t ~vpn ~count f =
  for v = vpn to vpn + count - 1 do
    match Hashtbl.find_opt t.entries v with
    | Some pte -> f v pte
    | None -> ()
  done

let map_range t ~vpn ~count f =
  if count < 0 then invalid_arg "Page_table.map_range: negative count";
  let mapped = ref 0 in
  for v = vpn to vpn + count - 1 do
    if not (Hashtbl.mem t.entries v) then
      match f v with
      | None -> ()
      | Some pte ->
          note t v "Page_table.map_range";
          Hashtbl.replace t.entries v pte;
          incr mapped
  done;
  !mapped

let fold_range t ~vpn ~count ~init ~f =
  if count < 0 then invalid_arg "Page_table.fold_range: negative count";
  let acc = ref init in
  for v = vpn to vpn + count - 1 do
    match Hashtbl.find_opt t.entries v with
    | Some pte -> acc := f v pte !acc
    | None -> ()
  done;
  !acc

let mapped_count t = Hashtbl.length t.entries

let fold t ~init ~f =
  (* Deterministic order keeps traces and tests stable. *)
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.entries [] in
  let keys = List.sort compare keys in
  List.fold_left (fun acc k -> f k (Hashtbl.find t.entries k) acc) init keys
