(** Normalization and summary math for the Figure 2/3 reproductions.

    The paper reports execution time and network traffic normalized to HMG
    per workload, plus Hbest/Sbest — the best hierarchical and best Spandex
    configuration per workload — and the headline averages of Sbest's
    reduction relative to Hbest (§I: 16% execution time, 27% traffic). *)

type cell = { config : string; result : Run.result }
type row = { workload : string; cells : cell list }

val normalized : row -> metric:(Run.result -> int) -> (string * float) list
(** Each config's metric divided by HMG's. *)

type headline = {
  time_avg : float;  (** mean of (1 - Sbest/Hbest) over workloads, in time. *)
  time_max : float;
  traffic_avg : float;
  traffic_max : float;
}

val headline : row list -> headline
(** Sbest/Hbest chosen by execution time per workload, as in §V; the
    traffic reduction uses the same chosen configurations. *)

val cycles : Run.result -> int
val flits : Run.result -> int

val simulate_jobs : ?jobs:int -> Sweep.job list -> (string * Run.result) list
(** Run every job through {!Sweep.simulate_all}, {!Run.assert_clean} each
    result, and pair it with its job's label, in submission order.  This
    is the one path from workloads to recorded numbers: the figures, the
    ablations and Table II. *)

val simulate_rows :
  ?jobs:int ->
  params:Params.t ->
  configs:Config.t list ->
  (string * Workload.t) list ->
  row list
(** Run every (workload x config) cell through {!simulate_jobs} and
    return one row per named workload, rows and cells in submission
    order: the Figure 2/3 rows. *)

val pp_row : Format.formatter -> row -> unit
(** Two lines: the workload's time and traffic normalized to HMG, two
    decimals per config ("bc           time    HMG=1.00 HMD=0.47 ..."). *)

val pp_headline : Format.formatter -> headline -> unit
(** Two lines, "Sbest vs Hbest, execution time: avg N% (max M%)" and the
    same for network traffic. *)

val diff_result : Run.result -> Run.result -> string option
(** [None] when the two runs are bit-identical in everything they report —
    cycles, flits, traffic breakdown, messages, events, checks, failures,
    and the full sorted stats assoc; otherwise a one-line description of
    the first differing field, for divergence diagnostics. *)

val traffic_share : Run.result -> (Spandex_proto.Msg.category * float) list
(** Per-category fraction of total flits. *)

val pp_latency : Format.formatter -> Run.result -> unit
(** Render the per-request-class latency table (count / p50 / p90 / p99 /
    max / mean in cycles) from [result.latency]; prints a hint when the
    run was untraced. *)

type fault_summary = {
  injected : int;  (** total faults the network injected. *)
  dropped : int;
  duplicated : int;
  delayed : int;
  reordered : int;
  resends : int;  (** timeout-driven re-issues across all requestors. *)
  recovered : int;  (** transactions that completed after >=1 resend. *)
  replayed : int;  (** duplicate requests answered from home reply caches. *)
}

val fault_summary : Run.result -> fault_summary
(** Collect the fault-injection and recovery counters out of a run's merged
    stats ("net.fault.*", "*.retry.*", "*.replayed"); all zero when the run
    used the reliable network. *)

val pp_fault_summary : Format.formatter -> fault_summary -> unit
