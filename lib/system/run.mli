(** Build a full system for a configuration and run a workload to
    completion.

    {2:device_names Device names}

    Device ids run: CPU L1s [0 .. cpu_cores - 1], GPU L1s (CU [j] is id
    [cpu_cores + j]), the home banks, the hierarchical GPU L2's banks, then
    its client port.  Each device has two spellings:

    - its {e device name} ([sys_device_names], and [track_names] by the
      same id) names its trace track, its trace counter tracks
      (["<name>.mshr"] and ["<name>.sb"] for an L1, ["<name>.mshr"] and
      ["<name>.parked"] for the client port, ["<name>.pending"] and
      ["<name>.blocked"] for a home bank) and its {!Spandex_sim.Engine.live_work} items:
      ["mesi_l1.<id>"] or ["denovo_l1.<id>"] for a CPU L1,
      ["gpu_l1.<j>"] or ["gpu_denovo_l1.<j>"] for the L1 of GPU CU [j],
      ["llc.b<bank>"] or ["dir.b<bank>"] for a home bank, ["gpu_l2.b<bank>"]
      and ["mesi_client"].  Flat configs keep the last two names, though
      they build neither.  The trace has one more track after the
      devices': the network's ({!Spandex_net.Network.name}), which carries
      its ["net.in_flight"] counter.
    - its {e label} ([view_name], the [stats] key prefix and the
      metrics [device] label) is ["<protocol>.<id>"] for every L1
      (["mesi_l1"], ["denovo_l1"] or ["gpu_l1"]) and one name for all
      banks of a home: ["spandex_llc"], ["mesi_dir"], ["gpu_l2"], and
      ["mesi_client"].

    So a GPU L1's two spellings differ, and under a GPU-coherence GPU
    the same string can name two devices: with 8 CPU cores, stats key
    ["gpu_l1.10.*"] is CU 2 (id 10), while device name ["gpu_l1.10"] is
    CU 10 (id 18). *)

type result = {
  cycles : int;  (** execution time: cycle at which the system finished. *)
  total_flits : int;  (** network traffic in flit-hops. *)
  traffic : (Spandex_proto.Msg.category * int) list;  (** Fig. 2/3 breakdown. *)
  messages : int;
  events : int;  (** engine events processed; basis for events/sec. *)
  checks : int;  (** workload [Check] ops executed. *)
  failures : Spandex_device.Check_log.failure list;
      (** data-value mismatches — any entry is a coherence bug. *)
  stats : Spandex_util.Stats.t;
      (** every built device's counters, keyed ["<label>.<counter>"], plus
          ["core.<id>.*"] and ["net.*"]. *)
  minor_words : float;
      (** minor-heap words allocated over the whole simulation (build +
          run), from [Gc.quick_stat]; divide by [events] for a per-event
          allocation figure.  Excluded from bit-identity comparisons. *)
  latency : (string * Spandex_util.Hist.summary) list;
      (** per-request-class issue-to-reply latency summaries (class name,
          {!Spandex_util.Hist.summary}), from the trace sink's histograms;
          [[]] when tracing is disabled.  Excluded from bit-identity
          comparisons (it is empty exactly when tracing is off). *)
  trace : Spandex_sim.Trace.t;
      (** the run's trace sink, for export or timeline reconstruction;
          {!Spandex_sim.Trace.disabled} when [params.trace] was [None]. *)
  track_names : string array;
      (** trace track name by track id, for trace export: the device
          names by device id, then the network's (see
          {!section-device_names}). *)
  metrics : Spandex_obs.Metrics.t;
      (** the run's time-series registry; {!Spandex_obs.Metrics.disabled}
          when [params.metrics] was [None].  Sampling shares the engine's
          inline sampler with the trace sink, so results are bit-identical
          with metrics on or off. *)
  dram_channel_peaks : int array;
      (** peak DRAM service-queue depth per channel (one channel per home
          bank), in bank order. *)
}

type view = {
  view_id : int;  (** network device id of the L1. *)
  view_name : string;
      (** the L1's label, ["<protocol>.<id>"]: for a GPU L1 it is not its
          [sys_device_names] entry (see {!section-device_names}). *)
  view_owned : line:int -> Spandex_util.Mask.t;
      (** words of [line] this L1 currently claims ownership of (MESI E/M
          counts as the full line; GPU-coh L1s never own). *)
  view_peek : Spandex_proto.Addr.t -> int option;
      (** locally cached value of a word, if the L1 holds a valid copy. *)
}
(** Read-only ownership/data view of one L1, for invariant oracles. *)

type llc_view = {
  lv_owner_of : Spandex_proto.Addr.t -> Spandex_proto.Msg.device_id option;
  lv_owned_mask : line:int -> Spandex_util.Mask.t;
  lv_peek : Spandex_proto.Addr.t -> int option;
}
(** Read-only registration view of the flat Spandex LLC. *)

type system = {
  sys_engine : Spandex_sim.Engine.t;
  sys_net : Spandex_net.Network.t;
  sys_check_logs : Spandex_device.Check_log.t list;
      (** one log per core, in core order; totals sum and failures
          concatenate. *)
  sys_device_names : string array;
      (** device name by device id, one per network endpoint id the
          configuration lays out (see {!section-device_names}). *)
  sys_track_names : string array;
      (** the same array as [result.track_names]. *)
  sys_finished : unit -> bool;
      (** every core has retired its programs and
          [Engine.live_work sys_engine] is empty; its items name the cores
          (["core.<id>"]), the network (["net"]) and otherwise
          [sys_device_names] entries. *)
  sys_fingerprint : unit -> string;
      (** canonical digest of all architectural state (cache lines, MSHRs,
          store buffers, directory/LLC registration, core pcs, barriers,
          in-flight count).  Transaction ids are remapped in first-encounter
          order, so executions reaching the same state through different
          schedules digest identically.  Simulation time is excluded. *)
  sys_views : view list;  (** one per L1, in device-id order. *)
  sys_llc : llc_view option;  (** flat-LLC configs only. *)
  sys_run : unit -> result;
      (** install the watchdog (if configured) and run to completion; call
          at most once. *)
}
(** A fully built, not-yet-run system.  The model checker uses this to
    drive the engine step-by-step under its own delivery schedule instead
    of calling [sys_run]. *)

val build : ?params:Params.t -> config:Config.t -> Workload.t -> system
(** Construct the whole system — engine, network, caches, cores — and
    start the cores, but process no events.  Resets the domain-local
    transaction counter (same discipline as {!simulate}). *)

val simulate :
  ?params:Params.t -> config:Config.t -> Workload.t -> result
(** Raises {!Spandex_sim.Engine.Stuck} if the system wedges,
    {!Spandex_sim.Engine.Livelock} if the watchdog trips,
    {!Spandex_sim.Engine.Deadlock} past the step limit, and [Failure] on
    protocol invariant violations.  Runs are deterministic.
    Each call owns all of its state and resets the domain-local transaction
    counter, so simulations must not be interleaved within one domain, but
    independent calls may run on separate domains in parallel — see
    {!Sweep}. *)

val assert_clean : result -> unit
(** Raises [Failure] describing the first data mismatch, if any. *)
