(* The golden scenarios: hello on three flavours (plus an 8-core point)
   and a 10 MB Redis BGSAVE on three flavours, each booted, run and
   audited through Experiments with the event stream recorded, so the
   end-of-run sanitizer also lints the protocol. [golden_dump.exe]
   prints the dumps — golden_seed.txt is its output — and the golden
   test checks every scenario against that recording. *)

module Engine = Ufork_sim.Engine
module Meter = Ufork_sim.Meter
module Trace = Ufork_sim.Trace
module Kernel = Ufork_sas.Kernel
module Image = Ufork_sas.Image
module Strategy = Ufork_core.Strategy
module Hello = Ufork_apps.Hello
module Kvstore = Ufork_apps.Kvstore
module Rdb = Ufork_apps.Rdb
module E = Ufork_workload.Experiments
module Keyspace = Ufork_workload.Keyspace

(* Meter counts, cycle totals and per-phase attribution: a change that
   moves cycles between phases without changing the totals is still a
   regression. *)
let dump label (b : E.booted) =
  let tr = Kernel.trace b.E.kernel in
  Printf.sprintf "SCENARIO %s" label
  :: Printf.sprintf "advanced %Ld" (Engine.advanced b.E.engine)
  :: Printf.sprintf "charged %Ld" (Trace.total_charged tr)
  :: (List.map
        (fun (k, v) -> Printf.sprintf "METER %s %d" k v)
        (Meter.to_list (Trace.meter tr))
     @ List.map
         (fun (st : Trace.span_total) ->
           Printf.sprintf "SPAN %s self %Ld total %Ld n %d"
             (String.concat ";" st.Trace.span_path)
             st.Trace.span_self st.Trace.span_cycles st.Trace.span_count)
         (Trace.span_totals tr))

let recorded ?cores system ~image main =
  E.with_run { E.empty_run with record = true } (fun () ->
      snd (E.run_main ?cores system ~image main))

let hello ?cores system =
  recorded ?cores system ~image:Image.hello (fun api ->
      ignore (Hello.fork_once api);
      Hello.reap api)

let redis system =
  let entries = 100 and value_len = 100 * 1024 in
  let heap_bytes = max (4 * 1024 * 1024) (entries * value_len * 137 / 100) in
  recorded system ~image:(Image.redis ~heap_bytes) (fun api ->
      let store = Kvstore.create api ~buckets:1024 () in
      Keyspace.populate store ~entries ~value_len ~seed:0x5eedL;
      ignore (Rdb.bgsave api store ~path:"/dump.rdb"))

let flavours =
  [ ("ufork-copa", E.Ufork Strategy.Copa); ("cheribsd", E.Cheribsd);
    ("nephele", E.Nephele) ]

(* Scenario name -> its dump, in recording order. *)
let all =
  let scenario tag run (name, system) =
    let label = tag ^ "/" ^ name in
    (label, fun () -> dump label (run system))
  in
  List.map (scenario "hello" (fun s -> hello s)) flavours
  (* 8-core point: pins the per-core run-queue / freelist / shootdown
     accounting at a core count above the default 4. *)
  @ [ scenario "hello-8core" (fun s -> hello ~cores:8 s) (List.hd flavours) ]
  @ List.map (scenario "redis10mb" redis) flavours
