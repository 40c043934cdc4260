(** System parameters (paper Table VI, scaled to the event-driven model).

    All latencies are in LLC-clock cycles (2 GHz).  The GPU's 700 MHz clock
    is modelled by issuing GPU ops every [gpu_clock] cycles. *)

type t = {
  cpu_cores : int;
  gpu_cus : int;
  warps_per_cu : int;
  cpu_clock : int;
  gpu_clock : int;
  l1_bytes : int;
  l1_ways : int;
  gpu_l2_bytes : int;
  gpu_l2_ways : int;
  llc_bytes : int;
  llc_ways : int;
  llc_banks : int;  (** bank endpoints per shared cache level (Table VI: 16). *)
  mshrs : int;
  sb_capacity : int;
  hit_latency : int;
  flat_net_latency : int;
      (** device <-> LLC in the flat Spandex system.  Flattening removes a
          level, so the shared Spandex LLC sits at the hierarchical L2's
          distance (Table VI: Spandex "L2" hit 29-66 cycles vs H-MESI L3
          58-99). *)
  local_net_latency : int;  (** same-cluster hop in the hierarchy. *)
  cross_net_latency : int;  (** cross-cluster hop in the hierarchy. *)
  llc_access : int;
  l2_access : int;
  mem_latency : int;
  mem_interval : int;  (** cycles between DRAM accesses (bandwidth). *)
  coalesce_window : int;
  max_reqv_retries : int;
  reqs_policy : Spandex.Llc.reqs_policy;
      (** how the Spandex LLC serves writer-invalidated reads (paper III-B
          options (1)/(2)/(3)); [Reqs_auto] is the paper's evaluation. *)
  fault : Spandex_net.Fault.spec option;
      (** fault-injection plan for the interconnect; [None] (the default)
          runs the reliable network, bit-identical to the pre-fault model. *)
  watchdog_cycles : int;
      (** raise [Engine.Livelock] when no core retires an op for this many
          cycles; 0 disables the watchdog. *)
  trace : Spandex_sim.Trace.spec option;
      (** transaction-trace sink configuration; [None] (the default) uses
          the shared disabled sink — no events, no histograms, and results
          bit-identical to an untraced build. *)
  metrics : Spandex_obs.Metrics.spec option;
      (** time-series metrics registry configuration; [None] (the
          default) registers no probes.  Sampling shares the engine's
          inline sampler with the trace sink (no events enqueued), so
          results are bit-identical either way. *)
}

val default : t

val small : t
(** Tiny caches and short latencies: exercises evictions, recalls and
    capacity races in unit tests. *)

val bench : t
(** The harness configuration: Table VI geometry and latencies with caches
    scaled down in proportion to the scaled-down workload footprints
    (DESIGN.md §5), preserving each benchmark's cache-fit properties. *)

val pp : Format.formatter -> t -> unit
