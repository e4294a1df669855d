(** The per-layer op-cost ladder: public functions of each layer timed
    in isolation (warm-up, then repeated batches; median ns per op and
    mean allocated words per op), and a prediction of a traced run's
    host time from those costs times the run's operation counts. A large
    residual points at host work no rung measures. *)

type row = {
  name : string;  (** Metric-safe, e.g. ["page_copy"]. *)
  layer : Layer.t;
  ns_per_op : float;
  words_per_op : float;
}

val measure : unit -> row list
(** Every rung, each timed for about 60 ms:
    capability derive/seal/equal, [Page.copy], [Relocate.relocate_page]
    on a tag-free and on a fully tagged page, [Page_table.map_range]
    and [fold_range] (per entry), the [Trace.emit] fast path, an
    uncontended [Sync] lock, [Engine] spawn plus switch, [Kvstore.set]
    of a 100 KiB value and [Mpy.run] per executed instruction. *)

val predict : row list -> Workloads.result -> (Layer.t * float) list
(** Predicted host seconds per layer ([mem], [core], [sim], [apps]) of a
    run: each rung's cost times the count of its operation over every
    machine (page copies, PTE copies, 256-granule pages scanned and
    capabilities relocated, emits, lock acquisitions, thread switches,
    [Kvstore.set] calls, interpreted instructions). The capability rungs
    have no counter of their own; their cost is inside the relocation
    rungs. *)

val residual_pct : predicted_s:float -> measured_s:float -> float
(** [(measured - predicted) / measured], in percent. *)
