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
module Part = Spandex_device.Part
module Metrics = Spandex_obs.Metrics
module Llc = Spandex.Llc
module Backing = Spandex.Backing
module Home = Spandex.Home
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
  track_names : string array;
  metrics : Metrics.t;
  dram_channel_peaks : int array;
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
  sys_track_names : string array;
  sys_finished : unit -> bool;
  sys_fingerprint : unit -> string;
  sys_views : view list;
  sys_llc : llc_view option;
  sys_run : unit -> result;
}

(* ----- the device table ---------------------------------------------------- *)

type l1 =
  | Mesi
  | Denovo of {
      policy : Spandex_l1.Spandex_policy.spec;
      atomics_at_llc : bool;
    }
  | Gpu_coh

type home = Llc_home | Dir_home | L2_home
type cls = Cpu of l1 | Gpu of l1 | Bank of home | Client

(* One row per network device id: the only place a device's class,
   protocol and names are spelled.  [name] is the trace-track and
   [Engine.live_work] spelling ([sys_device_names]); [label] is the stats
   prefix, metrics label and view name.  They differ for a GPU L1 (its CU
   number in [name], its device id in [label]) and a home bank. *)
type row = { id : Msg.device_id; cls : cls; name : string; label : string }

let l1_name = function
  | Mesi -> "mesi_l1"
  | Denovo _ -> "denovo_l1"
  | Gpu_coh -> "gpu_l1"

(* A home's pending-source name and its label. *)
let home_names = function
  | Llc_home -> ("llc", "spandex_llc")
  | Dir_home -> ("dir", "mesi_dir")
  | L2_home ->
    let name = "gpu_l2" in
    (name, name)

let client_name = "mesi_client"

let cache_geometry ~bytes ~ways =
  Spandex_mem.Cache_frame.size_lines ~bytes ~ways

let build ?(params = Params.default) ~(config : Config.t) (w : Workload.t) =
  Workload.validate w;
  Txn.reset ();
  let p = params in
  (* Allocation accounting covers the whole simulation — build + run — so
     bench harnesses can watch for allocation regressions alongside
     wall-clock.  Not part of bit-identity (GC counters are per-domain and
     scheduling-dependent). *)
  let gc0 = Gc.quick_stat () in
  (* Device ids: CPU L1s, GPU L1s, home banks, the GPU L2's banks, then its
     client port.  Flat configs build neither of the last two, but their
     rows keep the names. *)
  let cpus = p.Params.cpu_cores and banks = p.Params.llc_banks in
  let home_id = cpus + p.Params.gpu_cus in
  let l2_id = home_id + banks in
  let client_id = l2_id + banks in
  let cpu_l1 =
    match config.Config.cpu with
    | Config.Cpu_mesi -> Mesi
    | Config.Cpu_denovo ->
      Denovo
        {
          policy = Spandex_l1.Spandex_policy.Static_own;
          atomics_at_llc = config.Config.cpu_atomics_at_llc;
        }
  in
  let gpu_l1 =
    let denovo policy = Denovo { policy; atomics_at_llc = false } in
    match config.Config.gpu with
    | Config.Gpu_coh -> Gpu_coh
    | Config.Gpu_denovo -> denovo Spandex_l1.Spandex_policy.Static_own
    | Config.Gpu_adaptive -> denovo Spandex_l1.Spandex_policy.adaptive_writes
    | Config.Gpu_adaptive_rw -> denovo Spandex_l1.Spandex_policy.adaptive_full
  in
  let home =
    match config.Config.llc with
    | Config.Spandex_flat -> Llc_home
    | Config.H_mesi -> Dir_home
  in
  let numbered = Printf.sprintf "%s.%d" in
  let bank id home b =
    let name, label = home_names home in
    { id; cls = Bank home; name = Home.bank_name name b; label }
  in
  let table =
    Array.init (client_id + 1) (fun id ->
        if id < cpus then
          let name = numbered (l1_name cpu_l1) id in
          { id; cls = Cpu cpu_l1; name; label = name }
        else if id < home_id then
          let prefix =
            match gpu_l1 with Gpu_coh -> l1_name gpu_l1 | _ -> "gpu_denovo_l1"
          in
          {
            id;
            cls = Gpu gpu_l1;
            name = numbered prefix (id - cpus);
            label = numbered (l1_name gpu_l1) id;
          }
        else if id < l2_id then bank id home (id - home_id)
        else if id < client_id then bank id L2_home (id - l2_id)
        else { id; cls = Client; name = client_name; label = client_name })
  in
  let device_names = Array.map (fun r -> r.name) table in
  (* Trace tracks: the devices', then the network's own, so its counter
     track rides no device's. *)
  let net_track = Array.length table in
  let track_names = Array.append device_names [| Network.name |] in
  (* The LLC's ReqS option (1) test (Table III). *)
  let is_mesi id =
    match table.(id).cls with
    | Cpu Mesi | Gpu Mesi -> true
    | Cpu _ | Gpu _ | Bank _ | Client -> false
  in
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
  let topo =
    match config.Config.llc with
    | Config.Spandex_flat ->
      Network.flat_topology ~latency:p.Params.flat_net_latency
    | Config.H_mesi ->
      (* The GPU side (its L1s and the L2's banks), the L2's client port,
         and the CPU side with the directory. *)
      let groups =
        Array.map
          (fun r ->
            match r.cls with
            | Gpu _ | Bank L2_home -> 1
            | Client -> 2
            | Cpu _ | Bank (Llc_home | Dir_home) -> 0)
          table
      in
      Network.grouped_topology ~group_of:(Array.get groups)
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
  (* Each built endpoint's part under its row's label, most recently built
     first.  A home's banks share one label: the merged stats sum back to
     the aggregate. *)
  let parts = ref [] in
  let add row part = parts := (row, part) :: !parts in
  let add_banks first = Array.iteri (fun b -> add table.(first + b)) in
  (* --- home level(s) ------------------------------------------------------ *)
  let llc_config ~llc_id ~bytes ~ways =
    let sets, ways = cache_geometry ~bytes ~ways in
    {
      Llc.llc_id;
      banks;
      sets;
      ways;
      (* The flat LLC replaces the intermediate level and sits at its
         distance (Table VI). *)
      access_latency = p.Params.l2_access;
      is_mesi;
      reqs_policy = p.Params.reqs_policy;
    }
  in
  let cpu_home, gpu_home, llc_view =
    match config.Config.llc with
    | Config.Spandex_flat ->
      let llc =
        Llc.create ~name:(fst (home_names home)) engine net
          (Backing.dram engine dram)
          (llc_config ~llc_id:home_id ~bytes:p.Params.llc_bytes
             ~ways:p.Params.llc_ways)
      in
      add_banks home_id (Llc.parts llc);
      ( home_id,
        home_id,
        Some
          {
            lv_owner_of = Llc.owner_of llc;
            lv_owned_mask = (fun ~line -> Llc.owned_mask llc ~line);
            lv_peek = Llc.peek_word llc;
          } )
    | Config.H_mesi ->
      let sets, ways =
        cache_geometry ~bytes:p.Params.llc_bytes ~ways:p.Params.llc_ways
      in
      let dir =
        Mesi_dir.create ~name:(fst (home_names home)) engine net dram
          { Mesi_dir.dir_id = home_id; banks; sets; ways;
            access_latency = p.Params.llc_access }
      in
      add_banks home_id (Mesi_dir.parts dir);
      let client =
        Mesi_client.create ~name:client_name engine net
          { Mesi_client.id = client_id; dir_id = home_id; dir_banks = banks;
            hit_latency = p.Params.hit_latency }
      in
      let l2 =
        Llc.create ~name:(fst (home_names L2_home)) engine net
          (Mesi_client.backing client)
          (llc_config ~llc_id:l2_id ~bytes:p.Params.gpu_l2_bytes
             ~ways:p.Params.gpu_l2_ways)
      in
      add_banks l2_id (Llc.parts l2);
      add table.(client_id) (Mesi_client.part client);
      (home_id, l2_id, None)
  in
  (* --- L1s ------------------------------------------------------------------ *)
  let l1_part row l1 ~llc_id =
    let id = row.id and name = row.name and llc_banks = banks in
    let sets, ways =
      cache_geometry ~bytes:p.Params.l1_bytes ~ways:p.Params.l1_ways
    in
    let mshrs = p.Params.mshrs and sb_capacity = p.Params.sb_capacity in
    let hit_latency = p.Params.hit_latency in
    let coalesce_window = p.Params.coalesce_window in
    let max_reqv_retries = p.Params.max_reqv_retries in
    match l1 with
    | Mesi ->
      Mesi_l1.part
        (Mesi_l1.create ~name engine net
           { Mesi_l1.id; llc_id; llc_banks; sets; ways; mshrs; sb_capacity;
             hit_latency; coalesce_window;
             notify_home_on_fwd_getm = config.Config.llc = Config.H_mesi })
    | Denovo { policy; atomics_at_llc } ->
      Denovo_l1.part
        (Denovo_l1.create ~name engine net
           { Denovo_l1.id; llc_id; llc_banks; sets; ways; mshrs; sb_capacity;
             hit_latency; coalesce_window; max_reqv_retries; atomics_at_llc;
             region_of = w.Workload.region_of; policy })
    | Gpu_coh ->
      Gpu_l1.part
        (Gpu_l1.create ~name engine net
           { Gpu_l1.id; llc_id; llc_banks; sets; ways; mshrs; sb_capacity;
             hit_latency; coalesce_window; max_reqv_retries })
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
  let ncpu = Array.length w.Workload.cpu_programs in
  let ngpu = Array.length w.Workload.gpu_programs in
  if ncpu > cpus then invalid_arg "workload uses more CPU cores than configured";
  if ngpu > p.Params.gpu_cus then
    invalid_arg "workload uses more GPU CUs than configured";
  (* An L1 and its core for every row a program runs on, in id order. *)
  let cores = ref [] in
  let views = ref [] in
  let attach row l1 ~llc_id ~clock programs =
    let part = l1_part row l1 ~llc_id in
    add row part;
    let l1 = Option.get part.Part.l1 in
    views :=
      {
        view_id = row.id;
        view_name = row.label;
        view_owned = l1.Part.owned_mask;
        view_peek = l1.Part.peek_word;
      }
      :: !views;
    cores :=
      Core.create engine ~port:l1.Part.port ~barriers
        ~check_log:(new_check_log ()) ~core_id:row.id ~clock ~programs
      :: !cores
  in
  Array.iter
    (fun row ->
      match row.cls with
      | Cpu l1 when row.id < ncpu ->
        attach row l1 ~llc_id:cpu_home ~clock:p.Params.cpu_clock
          [| w.Workload.cpu_programs.(row.id) |]
      | Gpu l1 when row.id - cpus < ngpu ->
        attach row l1 ~llc_id:gpu_home ~clock:p.Params.gpu_clock
          w.Workload.gpu_programs.(row.id - cpus)
      | Cpu _ | Gpu _ | Bank _ | Client -> ())
    table;
  let cores = List.rev !cores in
  let views = List.rev !views in
  let check_logs = List.rev !check_logs in
  List.iter Core.start cores;
  (* [Metrics] is the one probe registry.  Parts register their
     probes on the metrics registry in build order; when tracing, they
     register again on the trace's registry, whose occupancy gauges become
     the trace's counter tracks.  Those are written parts most
     recently built first, then the network: the traced goldens digest
     the JSONL ring, whose contents depend on that order. *)
  let metrics_on = Metrics.on mreg in
  if metrics_on then begin
    List.iter
      (fun (row, part) ->
        part.Part.register_metrics ~label:row.label ~name:row.name mreg)
      (List.rev !parts);
    Network.register_metrics net ~track:net_track mreg;
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
    List.iter
      (fun (row, part) ->
        part.Part.register_metrics ~label:row.label ~name:row.name tracks)
      !parts;
    Network.register_metrics net ~track:net_track tracks
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
  (* Finished means no live work.  The cores' int compare guards the poll:
     their pending source formats every unfinished context. *)
  let finished () =
    List.for_all Core.finished cores && Engine.live_work engine = []
  in
  (* Canonical architectural-state fingerprint: parts in build order,
     then cores, barriers, and in-flight message count.  One fresh
     accumulator per call so transaction-id remapping is first-encounter
     canonical — two executions that reach the same architectural state
     through different schedules digest identically. *)
  let fingerprint () =
    let fp = Spandex_util.Fingerprint.create () in
    List.iter (fun (_, part) -> part.Part.fingerprint fp) (List.rev !parts);
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
    if p.Params.watchdog_cycles > 0 then
      Engine.set_watchdog engine ~interval:p.Params.watchdog_cycles
        ~progress:(fun () ->
          List.fold_left
            (fun acc c -> acc + Stats.get (Core.stats c) "ops")
            0 cores);
    let cycles = Engine.run engine ~until_done:finished in
    let stats = Stats.create () in
    List.iter
      (fun (row, part) ->
        Stats.merge_into ~dst:stats ~prefix:row.label part.Part.stats)
      !parts;
    List.iter
      (fun c ->
        Stats.merge_into ~dst:stats
          ~prefix:(Printf.sprintf "core.%d" (Core.core_id c))
          (Core.stats c))
      cores;
    Stats.merge_into ~dst:stats ~prefix:Network.name (Network.stats net);
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
      track_names;
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
    sys_track_names = track_names;
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
