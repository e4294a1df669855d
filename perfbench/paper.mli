(** The paper's reference values the benchmark checks its simulated
    results against, and the error measure. Sources: the paper notes the
    harness prints ([bench/main.ml], fig3/fig4/fig5) and EXPERIMENTS.md
    (Figs. 3–6). *)

type point = {
  name : string;  (** What is compared, e.g. ["fork_us uFork/CoPA"]. *)
  value : float;  (** The paper's value. *)
  unit_ : string;
  source : string;
}

val redis : point list
(** At 100 MB: fork latency (CoPA 260 us, full copy 23.2 ms), BGSAVE
    time (uFork 109 ms, CheriBSD 158 ms) and forked-child memory (CoPA
    6, full copy 144, CheriBSD 56 MB). *)

val faas_ratio : point
(** uFork/CheriBSD function throughput at 3 worker cores: 1.24. *)

val err_pct : (float * float) list -> float
(** Mean absolute relative error, in percent, of [(measured, paper)]
    pairs. Raises [Invalid_argument] on an empty list or a zero paper
    value. *)
