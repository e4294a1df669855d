module Hb = Ufork_util.Hb

(* Runtime lock-order checking ("lockdep") for the simulated multicore.

   The lock layer publishes [Acquire]/[Release] on the {!Ufork_util.Hb}
   bus (outermost acquisitions only — the recursive locks swallow
   re-entries). This module replays them into a may-hold-while-acquiring
   graph keyed by lock NAME: an edge a → b means some thread acquired b
   while holding a. Deadlock-freedom of a lock regime is exactly this
   graph staying acyclic plus the page-table shards being nested in
   ascending index order; any counterexample is invariant R2.

   Two violation shapes:
   - a cycle: the new acquisition's name already reaches (transitively)
     a name the thread holds, i.e. some other nesting took the locks in
     the opposite order. A two-node cycle is the classic ABBA inversion.
   - a descending pt-shard pair: both names parse as
     [lock.pt_shard.<index>] and the new index is not greater than a
     held one. Shards are kept per-index (not collapsed to one class
     like the static rule D10 does), so ascending-order violations are
     caught exactly, with no annotation escape hatch at runtime.

   Unnamed locks participate too (keyed ["lock.anon.<id>"]): pipes and
   conditions do not route through locks, but any future unnamed mutex
   still lands in the graph.

   Note the detector sees an [Acquire] only once the lock is truly held.
   A genuinely deadlocked ABBA pair would therefore suspend before
   publishing its second acquire — which is why the chaos injection
   ({!Ufork_sas.Kernel.chaos_acquire_shards_descending}) runs on a rogue
   boot thread that takes both shards while they are free: the inversion
   is published, flagged, and the run still terminates. *)

type edge = {
  src : string;
  dst : string;
  tid : int;  (* the thread whose nesting first drew the edge *)
}

type t = {
  bus : Hb.t;  (* the checked machine's: lock ids resolve to names here *)
  held : (int, int list) Hashtbl.t;  (* tid → lock ids, innermost first *)
  succs : (string, string list ref) Hashtbl.t;  (* adjacency by lock name *)
  mutable edges : edge list;  (* insertion order, newest first *)
  reported : (string * string, unit) Hashtbl.t;  (* dedup per ordered pair *)
  mutable violations_rev : Invariant.violation list;
  mutable events : int;
}

let lock_label t id =
  match Hb.lock_name t.bus id with
  | Some n -> n
  | None -> Printf.sprintf "lock.anon.%d" id

(* [Some i] iff the name is a per-index page-table shard. *)
let shard_index name =
  let prefix = "lock.pt_shard." in
  let plen = String.length prefix in
  if String.length name > plen && String.sub name 0 plen = prefix then
    int_of_string_opt (String.sub name plen (String.length name - plen))
  else None

let successors t name =
  match Hashtbl.find_opt t.succs name with Some l -> !l | None -> []

(* Is [dst] reachable from [src] along recorded edges? Returns the path
   (src first) for the violation report. *)
let path_to t ~src ~dst =
  let visited = Hashtbl.create 16 in
  let rec dfs node trail =
    if node = dst then Some (List.rev (node :: trail))
    else if Hashtbl.mem visited node then None
    else begin
      Hashtbl.add visited node ();
      List.fold_left
        (fun acc next ->
          match acc with Some _ -> acc | None -> dfs next (node :: trail))
        None (successors t node)
    end
  in
  dfs src []

let report t ~src ~dst violation =
  if not (Hashtbl.mem t.reported (src, dst)) then begin
    Hashtbl.add t.reported (src, dst) ();
    t.violations_rev <- violation :: t.violations_rev
  end

let add_edge t ~src ~dst ~tid =
  let l =
    match Hashtbl.find_opt t.succs src with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.add t.succs src l;
        l
  in
  if not (List.mem dst !l) then begin
    l := dst :: !l;
    t.edges <- { src; dst; tid } :: t.edges
  end

let check_acquire t ~tid ~held_name ~new_name =
  (match (shard_index held_name, shard_index new_name) with
  | Some i, Some j when j <= i ->
      report t ~src:held_name ~dst:new_name
        {
          Invariant.invariant = Invariant.Lock_order;
          subject = Printf.sprintf "%s -> %s" held_name new_name;
          detail =
            Printf.sprintf
              "thread %d acquired pt-shard %d while holding pt-shard %d: \
               shard pairs nest in ascending index order"
              tid j i;
        }
  | _ -> ());
  (* The reverse reachability check before inserting the new edge: if
     new_name already reaches held_name, some nesting ordered them the
     other way round and the union has a cycle. *)
  (match path_to t ~src:new_name ~dst:held_name with
  | Some path ->
      report t ~src:held_name ~dst:new_name
        {
          Invariant.invariant = Invariant.Lock_order;
          subject = Printf.sprintf "%s -> %s" held_name new_name;
          detail =
            Printf.sprintf
              "thread %d acquired %s while holding %s, but %s is already \
               ordered before %s (%s): acquisition graph has a cycle"
              tid new_name held_name new_name held_name
              (String.concat " -> " path);
        }
  | None -> ());
  add_edge t ~src:held_name ~dst:new_name ~tid

let handle t (ev : Hb.event) =
  t.events <- t.events + 1;
  match ev with
  | Hb.Acquire { tid; lock } ->
      let held = Option.value ~default:[] (Hashtbl.find_opt t.held tid) in
      let new_name = lock_label t lock in
      let seen = Hashtbl.create 4 in
      List.iter
        (fun h ->
          let held_name = lock_label t h in
          if not (Hashtbl.mem seen held_name) then begin
            Hashtbl.add seen held_name ();
            check_acquire t ~tid ~held_name ~new_name
          end)
        held;
      Hashtbl.replace t.held tid (lock :: held)
  | Hb.Release { tid; lock } ->
      (* Drop the innermost occurrence: lock bodies are properly nested
         in this kernel, but mirroring the race detector we tolerate
         out-of-order releases. *)
      let rec drop = function
        | [] -> []
        | l :: rest -> if l = lock then rest else l :: drop rest
      in
      let held = Option.value ~default:[] (Hashtbl.find_opt t.held tid) in
      Hashtbl.replace t.held tid (drop held)
  | Hb.Spawn _ | Hb.Wake _ | Hb.Write _
  (* Causal-analysis events carry no hold-set information. *)
  | Hb.Block _ | Hb.Contend _ | Hb.Handoff _ | Hb.Steal _ | Hb.Ipi _
  | Hb.Span_open _ | Hb.Span_close _ | Hb.Cap_store _ | Hb.Cap_load _ ->
      ()

let create bus =
  let t =
    {
      bus;
      held = Hashtbl.create 64;
      succs = Hashtbl.create 64;
      edges = [];
      reported = Hashtbl.create 16;
      violations_rev = [];
      events = 0;
    }
  in
  Hb.subscribe bus (handle t);
  t

let events_seen t = t.events
let violations t = List.rev t.violations_rev

let edges t =
  List.rev_map (fun e -> (e.src, e.dst)) t.edges
  |> List.sort_uniq (fun (a, b) (c, d) ->
         match String.compare a c with 0 -> String.compare b d | n -> n)
