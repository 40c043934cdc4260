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
  llc_banks : int;
  mshrs : int;
  sb_capacity : int;
  hit_latency : int;
  flat_net_latency : int;
  local_net_latency : int;
  cross_net_latency : int;
  llc_access : int;
  l2_access : int;
  mem_latency : int;
  mem_interval : int;
  coalesce_window : int;
  max_reqv_retries : int;
  reqs_policy : Spandex.Llc.reqs_policy;
  (* Fault-injection plan for the interconnect; [None] runs the reliable
     network and is bit-identical to the pre-fault model. *)
  fault : Spandex_net.Fault.spec option;
  (* Raise [Engine.Livelock] when no core retires an op for this many
     cycles; 0 disables the watchdog. *)
  watchdog_cycles : int;
  (* Transaction-trace sink configuration; [None] (the default) runs with
     the shared disabled sink and is bit-identical to an untraced build. *)
  trace : Spandex_sim.Trace.spec option;
  (* Time-series metrics registry configuration; [None] (the default)
     registers no probes and is bit-identical to a metrics-off build. *)
  metrics : Spandex_obs.Metrics.spec option;
}

(* Table VI: 8 CPU cores @2GHz, 16 CUs @700MHz, 32KB 8-way L1s, 4MB GPU L2,
   8MB LLC, 128-entry store buffers and L1 MSHRs; L2 hits 21-66 cycles, L3
   hits 58-99, memory ~200-500 (we use the optimistic end — the shape of
   the comparison, not absolute time, is the target). *)
let default =
  {
    cpu_cores = 8;
    gpu_cus = 16;
    warps_per_cu = 4;
    cpu_clock = 1;
    gpu_clock = 3;
    l1_bytes = 32 * 1024;
    l1_ways = 8;
    gpu_l2_bytes = 512 * 1024;
    gpu_l2_ways = 16;
    llc_bytes = 2 * 1024 * 1024;
    llc_ways = 16;
    llc_banks = 8;
    mshrs = 64;
    sb_capacity = 128;
    hit_latency = 1;
    flat_net_latency = 8;
    local_net_latency = 8;
    cross_net_latency = 16;
    llc_access = 12;
    l2_access = 8;
    mem_latency = 160;
    mem_interval = 2;
    coalesce_window = 6;
    max_reqv_retries = 1;
    reqs_policy = Spandex.Llc.Reqs_auto;
    fault = None;
    watchdog_cycles = 200_000;
    trace = None;
    metrics = None;
  }

let small =
  {
    default with
    cpu_cores = 2;
    gpu_cus = 2;
    warps_per_cu = 2;
    l1_bytes = 1024;
    l1_ways = 2;
    gpu_l2_bytes = 2048;
    gpu_l2_ways = 2;
    llc_bytes = 4096;
    llc_ways = 2;
    llc_banks = 2;
    mshrs = 8;
    sb_capacity = 4;
    flat_net_latency = 3;
    local_net_latency = 2;
    cross_net_latency = 5;
    llc_access = 2;
    l2_access = 1;
    mem_latency = 20;
    mem_interval = 1;
    coalesce_window = 2;
  }

(* Workloads are scaled ~8-16x below the paper's inputs to keep simulation
   tractable, so the caches scale with them: what must fit in an L1 (ReuseO
   tiles, the ReuseS matrix, RSCT windows) still fits, and what must
   overflow it (Indirection matrices, streaming inputs) still overflows. *)
let bench =
  {
    default with
    l1_bytes = 4 * 1024;
    gpu_l2_bytes = 128 * 1024;
    llc_bytes = 512 * 1024;
  }

let pp fmt p =
  Format.fprintf fmt
    "CPU cores %d @1x | GPU CUs %d x %d warps @%dx | L1 %dKB/%d-way | GPU L2 \
     %dKB | LLC %dKB x %d banks | mem %d cyc"
    p.cpu_cores p.gpu_cus p.warps_per_cu p.gpu_clock (p.l1_bytes / 1024)
    p.l1_ways
    (p.gpu_l2_bytes / 1024)
    (p.llc_bytes / 1024)
    p.llc_banks p.mem_latency
