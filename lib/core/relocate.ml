module Capability = Ufork_cheri.Capability
module Page = Ufork_mem.Page
module Addr = Ufork_mem.Addr

type outcome = { granules_scanned : int; relocated : int }

let relocate_cap ~owner_area ~child_base ~child_bytes cap =
  let in_child a = a >= child_base && a < child_base + child_bytes in
  if not (Capability.tag cap) then cap
  else if in_child (Capability.base cap) && in_child (Capability.cursor cap)
  then
    (* Already targets the child: restamp only. [Capability.equal] ignores
       the provenance stamp, so the relocated count is unaffected. *)
    Capability.stamp cap ~prov:child_base
  else
    match owner_area (Capability.cursor cap) with
    | Some (src_base, _src_bytes) ->
        Capability.stamp
          (Capability.rebase cap ~delta:(child_base - src_base))
          ~prov:child_base
    | None ->
        (* No identifiable source μprocess: never leak the authority. *)
        Capability.clear_tag cap

let relocate_page ~owner_area ~child_base ~child_bytes page =
  let relocated = ref 0 in
  Page.map_caps page (fun cap ->
      let cap' = relocate_cap ~owner_area ~child_base ~child_bytes cap in
      if not (Capability.equal cap cap') then incr relocated;
      cap');
  { granules_scanned = Addr.granules_per_page; relocated = !relocated }
