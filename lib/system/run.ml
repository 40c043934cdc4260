module Engine = Spandex_sim.Engine
module Trace = Spandex_sim.Trace
module Hist = Spandex_util.Hist
module Network = Spandex_net.Network
module Msg = Spandex_proto.Msg
module Txn = Spandex_proto.Txn
module Dram = Spandex_mem.Dram
module Stats = Spandex_util.Stats
module Core = Spandex_device.Core
module Port = Spandex_device.Port
module Barrier = Spandex_device.Barrier
module Check_log = Spandex_device.Check_log
module Metrics = Spandex_obs.Metrics
module Llc = Spandex.Llc
module Backing = Spandex.Backing
module Mesi_l1 = Spandex_mesi.Mesi_l1
module Mesi_dir = Spandex_mesi.Mesi_dir
module Mesi_client = Spandex_mesi.Mesi_client
module Gpu_l1 = Spandex_gpucoh.Gpu_l1
module Denovo_l1 = Spandex_denovo.Denovo_l1

type result = {
  cycles : int;
  total_flits : int;
  traffic : (Msg.category * int) list;
  messages : int;
  events : int;
  checks : int;
  failures : Check_log.failure list;
  stats : Stats.t;
  minor_words : float;
  latency : (string * Hist.summary) list;
  trace : Trace.t;
  device_names : string array;
  metrics : Metrics.t;
  dram_channel_peaks : int array;
}

type component = {
  c_name : string;
  c_quiescent : unit -> bool;
  c_stats : Stats.t;
  c_metrics : Metrics.t -> unit;
  c_fingerprint : Spandex_util.Fingerprint.t -> unit;
}

type view = {
  view_id : int;
  view_name : string;
  view_owned : line:int -> Spandex_util.Mask.t;
  view_peek : Spandex_proto.Addr.t -> int option;
}

type llc_view = {
  lv_owner_of : Spandex_proto.Addr.t -> Msg.device_id option;
  lv_owned_mask : line:int -> Spandex_util.Mask.t;
  lv_peek : Spandex_proto.Addr.t -> int option;
}

type system = {
  sys_engine : Engine.t;
  sys_net : Network.t;
  sys_check_logs : Check_log.t list;
  sys_device_names : string array;
  sys_finished : unit -> bool;
  sys_fingerprint : unit -> string;
  sys_views : view list;
  sys_llc : llc_view option;
  sys_run : unit -> result;
}

let cache_geometry ~bytes ~ways =
  Spandex_mem.Cache_frame.size_lines ~bytes ~ways

let build_denovo engine net (p : Params.t) ~name ~id ~llc_id ~atomics_at_llc
    ~region_of ~policy =
  let sets, ways = cache_geometry ~bytes:p.Params.l1_bytes ~ways:p.Params.l1_ways in
  let l1 =
    Denovo_l1.create ~name engine net
      {
        Denovo_l1.id;
        llc_id;
        llc_banks = p.Params.llc_banks;
        sets;
        ways;
        mshrs = p.Params.mshrs;
        sb_capacity = p.Params.sb_capacity;
        hit_latency = p.Params.hit_latency;
        coalesce_window = p.Params.coalesce_window;
        max_reqv_retries = p.Params.max_reqv_retries;
        atomics_at_llc;
        region_of;
        policy;
      }
  in
  ( Denovo_l1.port l1,
    {
      c_name = Printf.sprintf "denovo_l1.%d" id;
      c_quiescent = (fun () -> (Denovo_l1.port l1).Port.quiescent ());
      c_stats = Denovo_l1.stats l1;
      c_metrics =
        Denovo_l1.register_metrics l1
          ~device:(Printf.sprintf "denovo_l1.%d" id);
      c_fingerprint = Denovo_l1.fingerprint l1;
    },
    {
      view_id = id;
      view_name = Printf.sprintf "denovo_l1.%d" id;
      view_owned = (fun ~line -> Denovo_l1.owned_mask l1 ~line);
      view_peek = Denovo_l1.peek_word l1;
    } )

let build_mesi engine net (p : Params.t) ~id ~llc_id ~notify =
  let sets, ways = cache_geometry ~bytes:p.Params.l1_bytes ~ways:p.Params.l1_ways in
  let l1 =
    Mesi_l1.create engine net
      {
        Mesi_l1.id;
        llc_id;
        llc_banks = p.Params.llc_banks;
        sets;
        ways;
        mshrs = p.Params.mshrs;
        sb_capacity = p.Params.sb_capacity;
        hit_latency = p.Params.hit_latency;
        coalesce_window = p.Params.coalesce_window;
        notify_home_on_fwd_getm = notify;
      }
  in
  ( Mesi_l1.port l1,
    {
      c_name = Printf.sprintf "mesi_l1.%d" id;
      c_quiescent = (fun () -> (Mesi_l1.port l1).Port.quiescent ());
      c_stats = Mesi_l1.stats l1;
      c_metrics =
        Mesi_l1.register_metrics l1 ~device:(Printf.sprintf "mesi_l1.%d" id);
      c_fingerprint = Mesi_l1.fingerprint l1;
    },
    {
      view_id = id;
      view_name = Printf.sprintf "mesi_l1.%d" id;
      view_owned = (fun ~line -> Mesi_l1.owned_mask l1 ~line);
      view_peek = Mesi_l1.peek_word l1;
    } )

let build_gpucoh engine net (p : Params.t) ~name ~id ~llc_id =
  let sets, ways = cache_geometry ~bytes:p.Params.l1_bytes ~ways:p.Params.l1_ways in
  let l1 =
    Gpu_l1.create ~name engine net
      {
        Gpu_l1.id;
        llc_id;
        llc_banks = p.Params.llc_banks;
        sets;
        ways;
        mshrs = p.Params.mshrs;
        sb_capacity = p.Params.sb_capacity;
        hit_latency = p.Params.hit_latency;
        coalesce_window = p.Params.coalesce_window;
        max_reqv_retries = p.Params.max_reqv_retries;
      }
  in
  ( Gpu_l1.port l1,
    {
      c_name = Printf.sprintf "gpu_l1.%d" id;
      c_quiescent = (fun () -> (Gpu_l1.port l1).Port.quiescent ());
      c_stats = Gpu_l1.stats l1;
      c_metrics =
        Gpu_l1.register_metrics l1 ~device:(Printf.sprintf "gpu_l1.%d" id);
      c_fingerprint = Gpu_l1.fingerprint l1;
    },
    {
      view_id = id;
      view_name = Printf.sprintf "gpu_l1.%d" id;
      (* A GPU-coherence L1 never takes ownership of words. *)
      view_owned = (fun ~line:_ -> Spandex_util.Mask.empty);
      view_peek = Gpu_l1.peek_word l1;
    } )

let build ?(params = Params.default) ~(config : Config.t) (w : Workload.t) =
  Workload.validate w;
  Txn.reset ();
  let p = params in
  (* Allocation accounting covers the whole simulation — build + run — so
     bench harnesses can watch for allocation regressions alongside
     wall-clock.  Not part of bit-identity (GC counters are per-domain and
     scheduling-dependent). *)
  let gc0 = Gc.quick_stat () in
  (* Device ids: CPUs, then GPU CUs, then LLC/dir, L2 front, L2 back. *)
  let cpu_id i = i in
  let gpu_id j = p.Params.cpu_cores + j in
  let banks = p.Params.llc_banks in
  let home_id = p.Params.cpu_cores + p.Params.gpu_cus in
  let l2_front_id = home_id + banks in
  let l2_back_id = l2_front_id + banks in
  let trace =
    match p.Params.trace with
    | None -> Trace.disabled
    | Some spec -> Trace.create spec
  in
  let engine = Engine.create ~trace () in
  let mreg =
    match p.Params.metrics with
    | None -> Metrics.disabled
    | Some spec -> Metrics.create spec
  in
  (* Human-readable endpoint names for trace export ("who is track 12?");
     components name their engine pending-source reports the same way. *)
  let device_names =
    Array.init (l2_back_id + 1) (fun id ->
        if id < p.Params.cpu_cores then
          match config.Config.cpu with
          | Config.Cpu_mesi -> Printf.sprintf "mesi_l1.%d" id
          | Config.Cpu_denovo -> Printf.sprintf "denovo_l1.%d" id
        else if id < home_id then (
          let j = id - p.Params.cpu_cores in
          match config.Config.gpu with
          | Config.Gpu_coh -> Printf.sprintf "gpu_l1.%d" j
          | Config.Gpu_denovo | Config.Gpu_adaptive | Config.Gpu_adaptive_rw ->
            Printf.sprintf "gpu_denovo_l1.%d" j)
        else if id < l2_front_id then (
          let b = id - home_id in
          match config.Config.llc with
          | Config.Spandex_flat -> Printf.sprintf "llc.b%d" b
          | Config.H_mesi -> Printf.sprintf "dir.b%d" b)
        else if id < l2_back_id then
          Printf.sprintf "gpu_l2.b%d" (id - l2_front_id)
        else "mesi_client")
  in
  let topo =
    match config.Config.llc with
    | Config.Spandex_flat ->
      Network.flat_topology ~latency:p.Params.flat_net_latency
    | Config.H_mesi ->
      let group_of id =
        if id = l2_back_id then 2
        else if id >= p.Params.cpu_cores && id < home_id then 1
        else if id >= l2_front_id && id < l2_back_id then 1
        else 0
      in
      Network.grouped_topology ~group_of
        ~local_latency:p.Params.local_net_latency
        ~cross_latency:p.Params.cross_net_latency
  in
  let net = Network.create ?fault:p.Params.fault engine topo in
  (* Completion checks and the watchdog run on the topology's min-latency
     grid (see [Engine.set_lookahead]); finish cycles depend on it. *)
  Engine.set_lookahead engine topo.Network.min_latency;
  (* One DRAM channel per home bank: a bank only touches lines ≡ bank (mod
     banks), which route to exactly its channel. *)
  let dram =
    Dram.create ~channels:banks engine ~latency:p.Params.mem_latency
      ~service_interval:p.Params.mem_interval
  in
  (* Components, most recently built first. *)
  let components = ref [] in
  let add c = components := c :: !components in
  let kind_of id =
    if id < p.Params.cpu_cores then
      match config.Config.cpu with
      | Config.Cpu_mesi -> Llc.Kind_mesi
      | Config.Cpu_denovo -> Llc.Kind_denovo
    else
      match config.Config.gpu with
      | Config.Gpu_coh -> Llc.Kind_gpu
      | Config.Gpu_denovo | Config.Gpu_adaptive | Config.Gpu_adaptive_rw ->
        Llc.Kind_denovo
  in
  (* --- home level(s) ------------------------------------------------------ *)
  let cpu_home, gpu_home, llc_view =
    match config.Config.llc with
    | Config.Spandex_flat ->
      let sets, ways = cache_geometry ~bytes:p.Params.llc_bytes ~ways:p.Params.llc_ways in
      let llc =
        Llc.create engine net (Backing.dram engine dram)
          {
            Llc.llc_id = home_id;
            banks;
            sets;
            ways;
            (* The flat LLC replaces the intermediate level and sits at its
               distance (Table VI). *)
            access_latency = p.Params.l2_access;
            kind_of;
            reqs_policy = p.Params.reqs_policy;
          }
      in
      (* One component per bank, all named "spandex_llc": the merged stats
         sum back to the aggregate.  The fingerprint is emitted once, from
         bank 0's slot. *)
      for b = 0 to banks - 1 do
        add
          {
            c_name = "spandex_llc";
            c_quiescent = (fun () -> Llc.bank_quiescent llc b);
            c_stats = Llc.bank_stats llc b;
            c_metrics =
              (fun reg -> Llc.bank_register_metrics llc ~device:"spandex_llc" b reg);
            c_fingerprint =
              (if b = 0 then Llc.fingerprint llc else fun _ -> ());
          }
      done;
      ( home_id,
        home_id,
        Some
          {
            lv_owner_of = Llc.owner_of llc;
            lv_owned_mask = (fun ~line -> Llc.owned_mask llc ~line);
            lv_peek = Llc.peek_word llc;
          } )
    | Config.H_mesi ->
      let dsets, dways = cache_geometry ~bytes:p.Params.llc_bytes ~ways:p.Params.llc_ways in
      let dir =
        Mesi_dir.create engine net dram
          { Mesi_dir.dir_id = home_id; banks; sets = dsets; ways = dways;
            access_latency = p.Params.llc_access }
      in
      for b = 0 to banks - 1 do
        add
          {
            c_name = "mesi_dir";
            c_quiescent = (fun () -> Mesi_dir.bank_quiescent dir b);
            c_stats = Mesi_dir.bank_stats dir b;
            c_metrics =
              (fun reg ->
                Mesi_dir.bank_register_metrics dir ~device:"mesi_dir" b reg);
            c_fingerprint =
              (if b = 0 then Mesi_dir.fingerprint dir else fun _ -> ());
          }
      done;
      let client =
        Mesi_client.create engine net
          { Mesi_client.id = l2_back_id; dir_id = home_id; dir_banks = banks;
            hit_latency = p.Params.hit_latency }
      in
      let l2sets, l2ways =
        cache_geometry ~bytes:p.Params.gpu_l2_bytes ~ways:p.Params.gpu_l2_ways
      in
      let l2 =
        Llc.create ~name:"gpu_l2" engine net (Mesi_client.backing client)
          {
            Llc.llc_id = l2_front_id;
            banks;
            sets = l2sets;
            ways = l2ways;
            access_latency = p.Params.l2_access;
            kind_of;
            reqs_policy = p.Params.reqs_policy;
          }
      in
      for b = 0 to banks - 1 do
        add
          {
            c_name = "gpu_l2";
            c_quiescent = (fun () -> Llc.bank_quiescent l2 b);
            c_stats = Llc.bank_stats l2 b;
            c_metrics =
              (fun reg -> Llc.bank_register_metrics l2 ~device:"gpu_l2" b reg);
            c_fingerprint = (if b = 0 then Llc.fingerprint l2 else fun _ -> ());
          }
      done;
      add
        {
          c_name = "mesi_client";
          c_quiescent = (fun () -> (Mesi_client.backing client).Backing.quiescent ());
          c_stats = Mesi_client.stats client;
          c_metrics =
            Mesi_client.register_metrics client ~device:"mesi_client";
          c_fingerprint = Mesi_client.fingerprint client;
        };
      (home_id, l2_front_id, None)
  in
  (* --- L1s ------------------------------------------------------------------ *)
  let cpu_port i =
    match config.Config.cpu with
    | Config.Cpu_mesi ->
      build_mesi engine net p ~id:(cpu_id i) ~llc_id:cpu_home
        ~notify:(config.Config.llc = Config.H_mesi)
    | Config.Cpu_denovo ->
      build_denovo engine net p ~name:device_names.(cpu_id i) ~id:(cpu_id i)
        ~llc_id:cpu_home
        ~atomics_at_llc:config.Config.cpu_atomics_at_llc
        ~region_of:w.Workload.region_of
        ~policy:Spandex_l1.Spandex_policy.Static_own
  in
  let gpu_port j =
    match config.Config.gpu with
    | Config.Gpu_coh ->
      build_gpucoh engine net p ~name:device_names.(gpu_id j) ~id:(gpu_id j)
        ~llc_id:gpu_home
    | Config.Gpu_denovo | Config.Gpu_adaptive | Config.Gpu_adaptive_rw ->
      build_denovo engine net p ~name:device_names.(gpu_id j) ~id:(gpu_id j)
        ~llc_id:gpu_home
        ~atomics_at_llc:false ~region_of:w.Workload.region_of
        ~policy:
          (match config.Config.gpu with
          | Config.Gpu_adaptive -> Spandex_l1.Spandex_policy.adaptive_writes
          | Config.Gpu_adaptive_rw -> Spandex_l1.Spandex_policy.adaptive_full
          | Config.Gpu_coh | Config.Gpu_denovo ->
            Spandex_l1.Spandex_policy.Static_own)
  in
  (* --- cores ----------------------------------------------------------------- *)
  (* One check log per core: totals sum and failure lists concatenate in
     core order, independent of event interleave. *)
  let check_logs = ref [] in
  let new_check_log () =
    let log = Check_log.create () in
    check_logs := log :: !check_logs;
    log
  in
  let barriers =
    Array.map
      (fun parties -> Barrier.create engine ~parties)
      w.Workload.barrier_parties
  in
  let cores = ref [] in
  let views = ref [] in
  Array.iteri
    (fun i program ->
      if i >= p.Params.cpu_cores then
        invalid_arg "workload uses more CPU cores than configured";
      let port, comp, view = cpu_port i in
      add comp;
      views := view :: !views;
      let core =
        Core.create engine ~port ~barriers ~check_log:(new_check_log ())
          ~core_id:(cpu_id i)
          ~clock:p.Params.cpu_clock ~programs:[| program |]
      in
      cores := core :: !cores)
    w.Workload.cpu_programs;
  Array.iteri
    (fun j warps ->
      if j >= p.Params.gpu_cus then
        invalid_arg "workload uses more GPU CUs than configured";
      let port, comp, view = gpu_port j in
      add comp;
      views := view :: !views;
      let core =
        Core.create engine ~port ~barriers ~check_log:(new_check_log ())
          ~core_id:(gpu_id j)
          ~clock:p.Params.gpu_clock ~programs:warps
      in
      cores := core :: !cores)
    w.Workload.gpu_programs;
  let cores = List.rev !cores in
  let views = List.rev !views in
  let check_logs = List.rev !check_logs in
  List.iter Core.start cores;
  (* [Metrics] is the one probe registry.  Components register their
     probes on the metrics registry in build order; when tracing, they
     register again on the trace's registry, whose occupancy gauges become
     the trace's counter tracks.  Those are written components most
     recently built first, then the network: the traced goldens digest
     the JSONL ring, whose contents depend on that order. *)
  let metrics_on = Metrics.on mreg in
  if metrics_on then begin
    List.iter (fun c -> c.c_metrics mreg) (List.rev !components);
    Network.register_metrics net mreg;
    Metrics.counter mreg ~name:"spandex_engine_events_total"
      ~help:"engine events dispatched"
      (fun () -> Engine.events_processed engine);
    Dram.register_metrics dram mreg;
    (* Depth gauges wrap every endpoint handler, so arm them only after
       all devices have registered. *)
    Network.enable_vc_depth_metrics net mreg
  end;
  let tracks = Metrics.of_trace trace in
  if Trace.on trace then begin
    List.iter (fun c -> c.c_metrics tracks) !components;
    Network.register_metrics net tracks
  end;
  (* One sampler runs inline in the engine's dispatch loop at the faster
     cadence; it never enqueues events, so event counts and scheduling are
     identical with tracing and metrics on or off.  Each registry keeps its
     own next-due cycle, because the engine samples at the first event past
     each multiple, not on exact multiples. *)
  let every =
    min
      (if Trace.on trace then Trace.sample_every trace else max_int)
      (if metrics_on then Metrics.sample_every mreg else max_int)
  in
  if every < max_int then
    Engine.set_sampler engine ~every (fun time ->
        Metrics.sample_due tracks ~time;
        Metrics.sample_due mreg ~time);
  (* --- run ----------------------------------------------------------------- *)
  let finished () =
    List.for_all Core.finished cores
    && List.for_all (fun c -> c.c_quiescent ()) !components
    && Network.in_flight net = 0
  in
  (* Canonical architectural-state fingerprint: components in build order,
     then cores, barriers, and in-flight message count.  One fresh
     accumulator per call so transaction-id remapping is first-encounter
     canonical — two executions that reach the same architectural state
     through different schedules digest identically. *)
  let fingerprint () =
    let fp = Spandex_util.Fingerprint.create () in
    List.iter (fun c -> c.c_fingerprint fp) (List.rev !components);
    List.iter (fun core -> Core.fingerprint core fp) cores;
    Array.iter
      (fun b ->
        Spandex_util.Fingerprint.tag fp "bar";
        Spandex_util.Fingerprint.int fp (Barrier.waiting b);
        Spandex_util.Fingerprint.int fp (Barrier.generation b))
      barriers;
    Spandex_util.Fingerprint.tag fp "net";
    Spandex_util.Fingerprint.int fp (Network.in_flight net);
    Spandex_util.Fingerprint.digest fp
  in
  let sys_run () =
    (* Message pooling is scoped to the run: hand-driven harnesses that
       deliver into inbox lists (and the model checker, which drives
       [Engine.step] itself) keep the allocate-per-message default. *)
    let was_pooling = Msg.pooling_enabled () in
    Msg.set_pooling true;
    Fun.protect ~finally:(fun () -> Msg.set_pooling was_pooling) @@ fun () ->
    if p.Params.watchdog_cycles > 0 then
      Engine.set_watchdog engine ~interval:p.Params.watchdog_cycles
        ~progress:(fun () ->
          List.fold_left
            (fun acc c -> acc + Stats.get (Core.stats c) "ops")
            0 cores);
    let cycles = Engine.run engine ~until_done:finished in
    let stats = Stats.create () in
    List.iter
      (fun c -> Stats.merge_into ~dst:stats ~prefix:c.c_name c.c_stats)
      !components;
    List.iter
      (fun c ->
        Stats.merge_into ~dst:stats
          ~prefix:(Printf.sprintf "core.%d" (Core.core_id c))
          (Core.stats c))
      cores;
    Stats.merge_into ~dst:stats ~prefix:"net" (Network.stats net);
    let gc1 = Gc.quick_stat () in
    {
      cycles;
      total_flits = Network.total_flits net;
      traffic =
        List.map (fun c -> (c, Network.traffic_flits net c)) Msg.all_categories;
      messages = Network.messages_sent net;
      events = Engine.events_processed engine;
      checks =
        List.fold_left (fun acc l -> acc + Check_log.checks l) 0 check_logs;
      failures = List.concat_map Check_log.failures check_logs;
      stats;
      minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      latency = Trace.latency_summaries trace;
      trace;
      device_names;
      metrics = mreg;
      dram_channel_peaks =
        Array.map Dram.Channel.peak_queue_depth (Dram.channels dram);
    }
  in
  {
    sys_engine = engine;
    sys_net = net;
    sys_check_logs = check_logs;
    sys_device_names = device_names;
    sys_finished = finished;
    sys_fingerprint = fingerprint;
    sys_views = views;
    sys_llc = llc_view;
    sys_run;
  }

let simulate ?params ~config w =
  let sys = build ?params ~config w in
  sys.sys_run ()

let assert_clean r =
  match r.failures with
  | [] -> ()
  | f :: _ ->
    failwith
      (Format.asprintf "data mismatch (%d total): %a" (List.length r.failures)
         Check_log.pp_failure f)
