(* Command-line driver: run any workload on any cache configuration and
   inspect results.

     spandex_cli list
     spandex_cli run -w bc -c SMD
     spandex_cli run -w indirection --all-configs --scale 0.5
     spandex_cli sweep --jobs 4   # every workload x every configuration
     spandex_cli run -w stress -c SDD --stats --seed 7
     spandex_cli trace bc -c SMD -o bc.trace.json   # open in Perfetto
     spandex_cli explain bc --txn 42                # one txn's timeline *)

open Cmdliner
module Config = Spandex_system.Config
module Params = Spandex_system.Params
module Run = Spandex_system.Run
module Sweep = Spandex_system.Sweep
module Report = Spandex_system.Report
module Registry = Spandex_workloads.Registry
module Trace = Spandex_sim.Trace
module Hist = Spandex_util.Hist
module Metrics = Spandex_obs.Metrics

let params_of ~cpus ~cus ~warps ~fault ~watchdog ~trace =
  let base = Params.bench in
  {
    base with
    Params.cpu_cores = Option.value ~default:base.Params.cpu_cores cpus;
    gpu_cus = Option.value ~default:base.Params.gpu_cus cus;
    warps_per_cu = Option.value ~default:base.Params.warps_per_cu warps;
    fault;
    watchdog_cycles =
      Option.value ~default:base.Params.watchdog_cycles watchdog;
    trace;
  }

let fault_spec_of ~drop ~dup ~delay ~reorder ~seed =
  if drop = 0.0 && dup = 0.0 && delay = 0.0 && reorder = 0.0 then None
  else
    Some
      (Spandex_net.Fault.uniform ~drop ~dup ~delay ~reorder ~seed ())

let find_entry name =
  try Registry.find name
  with Not_found ->
    Printf.eprintf "unknown workload %s (try: %s)\n" name
      (String.concat ", " Registry.names);
    exit 1

let find_config = function
  | None -> Config.smd
  | Some name -> (
    try Config.by_name name
    with Not_found ->
      Printf.eprintf "unknown configuration %s\n" name;
      exit 1)

(* [names] is a run's [track_names]; ids outside it print as "devN". *)
let device_name names id =
  if id >= 0 && id < Array.length names then names.(id)
  else Printf.sprintf "dev%d" id

let run_one ~params ~config ~scale ~stats entry =
  let geom = Registry.geometry_of_params params in
  let wl = entry.Registry.build ~scale geom in
  let t0 = Unix.gettimeofday () in
  let r =
    try Run.simulate ~params ~config wl with
    | ( Spandex_sim.Engine.Stuck _ | Spandex_sim.Engine.Livelock _
      | Spandex_sim.Engine.Deadlock _ ) as e ->
      Printf.eprintf "%s %s: %s\n" entry.Registry.name config.Config.name
        (Printexc.to_string e);
      exit 2
    | Spandex_util.Retry.Exhausted what ->
      Printf.eprintf "%s %s: retries exhausted: %s\n" entry.Registry.name
        config.Config.name what;
      exit 2
  in
  Run.assert_clean r;
  Printf.printf
    "%-12s %-4s cycles=%-9d flits=%-9d msgs=%-8d checks=%-7d wall=%.2fs\n"
    entry.Registry.name config.Config.name r.Run.cycles r.Run.total_flits
    r.Run.messages r.Run.checks
    (Unix.gettimeofday () -. t0);
  Printf.printf "  traffic: %s\n"
    (String.concat " "
       (List.map
          (fun (cat, n) ->
            Printf.sprintf "%s=%d" (Spandex_proto.Msg.category_name cat) n)
          r.Run.traffic));
  if params.Params.fault <> None then
    Format.printf "  %a@." Report.pp_fault_summary (Report.fault_summary r);
  if r.Run.latency <> [] then
    Format.printf "  @[<v 2>latency (cycles):@,%a@]@." Report.pp_latency r;
  if stats then
    List.iter
      (fun (k, v) -> Printf.printf "  %-40s %d\n" k v)
      (Spandex_util.Stats.to_assoc r.Run.stats)

(* --- arguments ------------------------------------------------------------- *)

let workload_arg =
  let doc =
    Printf.sprintf "Workload to run; one of: %s."
      (String.concat ", " Registry.names)
  in
  Arg.(required & opt (some string) None & info [ "w"; "workload" ] ~doc)

let config_arg =
  let doc =
    Printf.sprintf "Cache configuration; one of: %s."
      (String.concat ", " (List.map (fun c -> c.Config.name) Config.extended))
  in
  Arg.(value & opt (some string) None & info [ "c"; "config" ] ~doc)

let all_configs_arg =
  Arg.(value & flag & info [ "all-configs" ] ~doc:"Run every configuration.")

let scale_arg =
  Arg.(value & opt float 1.0 & info [ "scale" ] ~doc:"Workload size factor.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Dump per-component counters.")

let cpus_arg =
  Arg.(value & opt (some int) None & info [ "cpus" ] ~doc:"CPU core count.")

let cus_arg =
  Arg.(value & opt (some int) None & info [ "cus" ] ~doc:"GPU CU count.")

let warps_arg =
  Arg.(value & opt (some int) None & info [ "warps" ] ~doc:"Warps per CU.")

let fault_drop_arg =
  Arg.(
    value & opt float 0.0
    & info [ "fault-drop" ]
        ~doc:"Probability of dropping an eligible message (0 disables).")

let fault_dup_arg =
  Arg.(
    value & opt float 0.0
    & info [ "fault-dup" ]
        ~doc:"Probability of duplicating an eligible message.")

let fault_delay_arg =
  Arg.(
    value & opt float 0.0
    & info [ "fault-delay" ] ~doc:"Probability of adding extra latency.")

let fault_reorder_arg =
  Arg.(
    value & opt float 0.0
    & info [ "fault-reorder" ]
        ~doc:"Probability of jittering delivery order within a window.")

let fault_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "fault-seed" ]
        ~doc:"Deterministic seed for the fault-injection plan.")

let trace_flag_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Record a transaction-level trace during the run: per-class \
           latency histograms are printed afterwards.  Results are \
           bit-identical to an untraced run.")

let watchdog_arg =
  Arg.(
    value & opt (some int) None
    & info [ "watchdog-cycles" ]
        ~doc:
          "Raise a structured livelock error when no core retires an op for \
           this many cycles (0 disables; default 200000).")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ]
        ~doc:
          "Worker domains for independent simulations (0 = cores - 1, \
           1 = sequential). Results are bit-identical for any value.")

let resolve_jobs jobs = if jobs <= 0 then Sweep.default_jobs () else jobs

(* --- commands -------------------------------------------------------------- *)

let list_cmd =
  let run () =
    Printf.printf "Workloads:\n";
    List.iter
      (fun e ->
        Printf.printf "  %-12s (%s)\n" e.Registry.name
          (match e.Registry.kind with
          | `Micro -> "synthetic microbenchmark, paper IV-B1"
          | `App -> "collaborative application, paper IV-B2"
          | `Stress -> "randomized DRF litmus generator"))
      Registry.entries;
    Printf.printf "Configurations:\n";
    List.iter
      (fun c -> Printf.printf "  %s\n" (Config.describe c))
      Config.extended
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads and configurations")
    Term.(const run $ const ())

let run_cmd =
  let run workload config all_configs scale stats cpus cus warps drop dup delay
      reorder fault_seed watchdog trace =
    let entry = find_entry workload in
    let fault = fault_spec_of ~drop ~dup ~delay ~reorder ~seed:fault_seed in
    let trace = if trace then Some Trace.default_spec else None in
    let params = params_of ~cpus ~cus ~warps ~fault ~watchdog ~trace in
    let configs = if all_configs then Config.all else [ find_config config ] in
    List.iter (fun config -> run_one ~params ~config ~scale ~stats entry) configs
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload")
    Term.(
      const run $ workload_arg $ config_arg $ all_configs_arg $ scale_arg
      $ stats_arg $ cpus_arg $ cus_arg $ warps_arg $ fault_drop_arg
      $ fault_dup_arg $ fault_delay_arg $ fault_reorder_arg $ fault_seed_arg
      $ watchdog_arg $ trace_flag_arg)

(* Every non-stress registry entry on every swept cache configuration
   (the paper's six plus the adaptive extensions), in registry order. *)
let sweep_cmd =
  let run scale jobs =
    let jobs = resolve_jobs jobs in
    let params = Params.bench in
    let geom = Registry.geometry_of_params params in
    let workloads =
      List.filter_map
        (fun e ->
          if e.Registry.kind = `Stress then None
          else Some (e.Registry.name, e.Registry.build ~scale geom))
        Registry.entries
    in
    let t0 = Unix.gettimeofday () in
    let rows =
      Report.simulate_rows ~jobs ~params ~configs:Config.extended workloads
    in
    let wall = Unix.gettimeofday () -. t0 in
    List.iter (Format.printf "%a@." Report.pp_row) rows;
    (* Fleet headline.  The paper-config total covers the six baseline
       configurations only, so it stays comparable when extensions are
       added or dropped. *)
    let is_paper name =
      List.exists (fun (c : Config.t) -> c.Config.name = name) Config.all
    in
    let cells =
      List.concat_map (fun (row : Report.row) -> row.Report.cells) rows
    in
    let events_if keep =
      List.fold_left
        (fun acc (c : Report.cell) ->
          let r = c.Report.result in
          if keep c.Report.config then acc + r.Run.events else acc)
        0 cells
    in
    let events = events_if (fun _ -> true) in
    let paper_events = events_if is_paper in
    let minor_words =
      List.fold_left
        (fun acc (c : Report.cell) -> acc +. c.Report.result.Run.minor_words)
        0.0 cells
    in
    Printf.printf
      "fleet: %d cells, jobs %d, wall %.2fs, %d events (%d on the paper's six \
       configs), %.0f events/s, %.1f minor words/event\n"
      (List.length cells) jobs wall events paper_events
      (float_of_int events /. max 1e-9 wall)
      (minor_words /. float_of_int (max 1 events))
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Run every workload on every configuration")
    Term.(const run $ scale_arg $ jobs_arg)

(* --- trace / explain: transaction-level observability ------------------------ *)

let simulate_traced ~params ~config entry ~scale =
  let geom = Registry.geometry_of_params params in
  let wl = entry.Registry.build ~scale geom in
  let r = Run.simulate ~params ~config wl in
  Run.assert_clean r;
  r

let workload_pos_arg =
  let doc =
    Printf.sprintf "Workload to trace; one of: %s."
      (String.concat ", " Registry.names)
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let trace_cmd =
  let run workload config scale format out capacity sample_every drop dup delay
      reorder fault_seed =
    let entry = find_entry workload in
    let config = find_config config in
    let spec = { Trace.capacity; sample_every } in
    let fault = fault_spec_of ~drop ~dup ~delay ~reorder ~seed:fault_seed in
    let params = { Params.bench with Params.trace = Some spec; fault } in
    let r = simulate_traced ~params ~config entry ~scale in
    let tr = r.Run.trace in
    let out =
      match out with
      | Some o -> o
      | None ->
        Printf.sprintf "TRACE_%s_%s.%s" entry.Registry.name config.Config.name
          (if format = "jsonl" then "jsonl" else "json")
    in
    let buf = Buffer.create (1 lsl 16) in
    let device_name = device_name r.Run.track_names in
    (match format with
    | "chrome" -> Trace.export_chrome tr ~device_name buf
    | "jsonl" -> Trace.export_jsonl tr ~device_name buf
    | f ->
      Printf.eprintf "unknown trace format %s (chrome or jsonl)\n" f;
      exit 1);
    let oc = open_out out in
    Buffer.output_buffer oc buf;
    close_out oc;
    Printf.printf "%s %s: %d events recorded (%d dropped, %d open spans)\n"
      entry.Registry.name config.Config.name (Trace.recorded tr)
      (Trace.dropped tr) (Trace.open_spans tr);
    Format.printf "@[<v 2>latency (cycles):@,%a@]@." Report.pp_latency r;
    Printf.printf "wrote %s%s\n" out
      (if format = "chrome" then " (load it at https://ui.perfetto.dev)"
       else "")
  in
  let format_arg =
    Arg.(
      value & opt string "chrome"
      & info [ "format" ]
          ~doc:
            "Export format: 'chrome' (Chrome trace-event JSON, loadable in \
             Perfetto or chrome://tracing) or 'jsonl' (one JSON object per \
             line for ad-hoc analysis).")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ]
          ~doc:"Output path (default TRACE_<workload>_<config>.<ext>).")
  in
  let capacity_arg =
    Arg.(
      value & opt int Trace.default_spec.Trace.capacity
      & info [ "capacity" ]
          ~doc:
            "Trace ring capacity in events (rounded up to a power of two); \
             the oldest events are dropped once it fills.")
  in
  let sample_every_arg =
    Arg.(
      value & opt int Trace.default_spec.Trace.sample_every
      & info [ "sample-every" ]
          ~doc:"Cycles between occupancy counter samples.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one workload with transaction tracing enabled and export the \
          trace (Chrome trace-event JSON for Perfetto, or JSONL).  The \
          simulated results are bit-identical to an untraced run.")
    Term.(
      const run $ workload_pos_arg $ config_arg $ scale_arg $ format_arg
      $ out_arg $ capacity_arg $ sample_every_arg $ fault_drop_arg
      $ fault_dup_arg $ fault_delay_arg $ fault_reorder_arg $ fault_seed_arg)

let explain_cmd =
  let run workload config scale txn capacity drop dup delay reorder fault_seed
      =
    let entry = find_entry workload in
    let config = find_config config in
    (* Sparse counter samples: the ring budget goes to the protocol events
       [explain] actually renders. *)
    let spec = { Trace.capacity; sample_every = 1 lsl 20 } in
    let fault = fault_spec_of ~drop ~dup ~delay ~reorder ~seed:fault_seed in
    let params = { Params.bench with Params.trace = Some spec; fault } in
    let r = simulate_traced ~params ~config entry ~scale in
    let tr = r.Run.trace in
    let dev = device_name r.Run.track_names in
    (* The transaction family: the requested txn plus every successor
       linked by a txn.chain instant (timeout re-issues reuse the same txn
       id; protocol-level retries and conversions allocate a new one and
       record the link). *)
    let family = Hashtbl.create 8 in
    Hashtbl.replace family txn ();
    let shown = ref 0 in
    Printf.printf "txn %d in %s on %s:\n" txn entry.Registry.name
      config.Config.name;
    Trace.iter tr ~f:(fun ev ->
        let mem t = Hashtbl.mem family t in
        match ev with
        | Trace.Span_begin { time; dev = d; txn = t; cls; line } when mem t ->
          incr shown;
          Printf.printf "%10d  %-14s txn=%-6d issue %s line=0x%x\n" time
            (dev d) t (Trace.cls_name cls) line
        | Trace.Span_end { time; dev = d; txn = t; cls; latency } when mem t ->
          incr shown;
          Printf.printf "%10d  %-14s txn=%-6d complete %s (latency %d)\n" time
            (dev d) t (Trace.cls_name cls) latency
        | Trace.Instant { time; dev = d; name; txn = t; arg } when mem t ->
          incr shown;
          if name = "txn.chain" then begin
            Hashtbl.replace family arg ();
            Printf.printf "%10d  %-14s txn=%-6d continues as txn %d\n" time
              (dev d) t arg
          end
          else
            Printf.printf "%10d  %-14s txn=%-6d %s (arg %d)\n" time (dev d) t
              name arg
        | Trace.Msg_send { time; src; dst; txn = t; kind; line } when mem t ->
          incr shown;
          Printf.printf "%10d  %-14s txn=%-6d %s -> %s line=0x%x\n" time
            (dev src) t (Trace.kind_name kind) (dev dst) line
        | _ -> ());
    if !shown = 0 then begin
      Printf.eprintf
        "txn %d not found in trace (ring may have wrapped; rerun with a \
         larger --capacity)\n"
        txn;
      exit 1
    end
    else if Trace.dropped tr > 0 then
      Printf.printf
        "  note: ring dropped %d events; early history may be missing (use \
         --capacity to keep more)\n"
        (Trace.dropped tr)
  in
  let txn_arg =
    Arg.(
      required & opt (some int) None
      & info [ "txn" ] ~doc:"Transaction id to reconstruct.")
  in
  let capacity_arg =
    Arg.(
      value & opt int (1 lsl 21)
      & info [ "capacity" ]
          ~doc:"Trace ring capacity in events while reconstructing.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Re-run one workload with tracing and print a single transaction's \
          timeline: issue, network messages, retries, fault injections, \
          nacks, protocol-level follow-on transactions, and completion.")
    Term.(
      const run $ workload_pos_arg $ config_arg $ scale_arg $ txn_arg
      $ capacity_arg $ fault_drop_arg $ fault_dup_arg $ fault_delay_arg
      $ fault_reorder_arg $ fault_seed_arg)

(* --- metrics: time-series observability --------------------------------------- *)

let metrics_cmd =
  let run workload config scale format out sample_every =
    let entry = find_entry workload in
    let config = find_config config in
    if sample_every < 1 then begin
      Printf.eprintf "--sample-every must be >= 1\n";
      exit 1
    end;
    let params =
      {
        Params.bench with
        Params.metrics = Some { Metrics.sample_every };
        (* The chrome export merges metric counter tracks into the
           transaction timeline, so it needs the trace sink too. *)
        trace = (if format = "chrome" then Some Trace.default_spec else None);
      }
    in
    let r = simulate_traced ~params ~config entry ~scale in
    let m = r.Run.metrics in
    let out =
      match out with
      | Some o -> o
      | None ->
        Printf.sprintf "METRICS_%s_%s.%s" entry.Registry.name
          config.Config.name
          (match format with "csv" -> "csv" | "chrome" -> "json" | _ -> "om")
    in
    let buf = Buffer.create (1 lsl 16) in
    (match format with
    | "openmetrics" -> Metrics.export_openmetrics m buf
    | "csv" -> Metrics.export_csv m buf
    | "chrome" ->
      Trace.export_chrome
        ~extra:(Metrics.chrome_counter_events m)
        r.Run.trace
        ~device_name:(device_name r.Run.track_names)
        buf
    | f ->
      Printf.eprintf "unknown metrics format %s (openmetrics, csv or chrome)\n"
        f;
      exit 1);
    let oc = open_out out in
    Buffer.output_buffer oc buf;
    close_out oc;
    Printf.printf "%s %s: %d series, %d samples (every %d cycles)\n"
      entry.Registry.name config.Config.name (Metrics.num_series m)
      (Metrics.num_samples m) sample_every;
    Printf.printf "wrote %s%s\n" out
      (if format = "chrome" then " (load it at https://ui.perfetto.dev)"
       else "")
  in
  let format_arg =
    Arg.(
      value & opt string "openmetrics"
      & info [ "format" ]
          ~doc:
            "Export format: 'openmetrics' (Prometheus-compatible text, \
             sample timestamps carry the simulated cycle), 'csv' \
             (long-format cycle,metric,labels,kind,value,delta) or 'chrome' \
             (Chrome trace-event JSON with the metric series merged into \
             the transaction timeline as counter tracks).")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ]
          ~doc:"Output path (default METRICS_<workload>_<config>.<ext>).")
  in
  let sample_every_arg =
    Arg.(
      value & opt int Metrics.default_spec.Metrics.sample_every
      & info [ "sample-every" ]
          ~doc:"Cycles between metric samples.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run one workload with time-series metrics enabled — cache \
          occupancy, MSHR/store-buffer pressure, network in-flight and \
          per-virtual-channel depth, retry and fault counters, DRAM queue \
          depth — and export them.  Sampling runs inline in the engine \
          dispatch loop and never enqueues events, so the simulated \
          results are bit-identical to a metrics-off run.")
    Term.(
      const run $ workload_pos_arg $ config_arg $ scale_arg $ format_arg
      $ out_arg $ sample_every_arg)

(* --- check: exhaustive-interleaving model checker ---------------------------- *)

module Litmus = Spandex_check.Litmus
module Checker = Spandex_check.Checker
module Schedule = Spandex_check.Schedule

let check_replay ~path ~out =
  let header, violation, steps, sys =
    try Checker.replay ~trace:Trace.default_spec ~path ()
    with Failure m | Sys_error m ->
      Printf.eprintf "cannot replay %s: %s\n" path m;
      exit 1
  in
  Printf.printf "replaying %s: case=%s config=%s cpus=%d gpus=%d%s%s%s\n" path
    header.Schedule.h_case header.Schedule.h_config header.Schedule.h_cpus
    header.Schedule.h_gpus
    (if header.Schedule.h_banks > 1 then
       Printf.sprintf " banks=%d" header.Schedule.h_banks
     else "")
    (if header.Schedule.h_faults then " faults" else "")
    (match header.Schedule.h_seed_bug with
    | Some b -> Printf.sprintf " seed-bug=%s" b
    | None -> "");
  Printf.printf "recorded violation: %s\n" header.Schedule.h_violation;
  List.iteri
    (fun i (a, descr) ->
      Printf.printf "  %3d %-10s %s\n" i (Schedule.action_name a) descr)
    steps;
  (match sys with
  | None -> ()
  | Some sys ->
    let tr = Spandex_sim.Engine.trace sys.Run.sys_engine in
    let buf = Buffer.create (1 lsl 16) in
    Trace.export_chrome tr
      ~device_name:(device_name sys.Run.sys_track_names)
      buf;
    let oc = open_out out in
    Buffer.output_buffer oc buf;
    close_out oc;
    Printf.printf "wrote %s (load it at https://ui.perfetto.dev)\n" out);
  match violation with
  | Some v ->
    Printf.printf "reproduced: %s\n" (Checker.violation_descr v);
    0
  | None ->
    Printf.eprintf
      "counterexample did NOT reproduce a violation (stale file, or the \
       bug was fixed)\n";
    1

let check_cmd =
  let run case config cpus gpus llc_banks faults fault_budget max_states
      budget_secs no_reduce seed_bug out replay =
    match replay with
    | Some path ->
      let out = Option.value ~default:"CHECK_replay.trace.json" out in
      exit (check_replay ~path ~out)
    | None ->
      let config = find_config config in
      let cases =
        match case with
        | None -> Litmus.all
        | Some name -> (
          try [ Litmus.by_name name ]
          with Not_found ->
            Printf.eprintf "unknown case %s (try: %s)\n" name
              (String.concat ", "
                 (List.map (fun c -> c.Litmus.case_name) Litmus.all));
            exit 1)
      in
      let seed_bug =
        Option.map
          (fun name ->
            try Checker.bug_of_name name
            with Not_found | Failure _ ->
              Printf.eprintf "unknown seed bug %s (try: %s)\n" name
                (String.concat ", "
                   (List.map Checker.bug_name Checker.all_bugs));
              exit 1)
          seed_bug
      in
      let violated = ref false in
      List.iter
        (fun (c : Litmus.case) ->
          if cpus + gpus < c.Litmus.min_devices then
            Printf.printf
              "%-8s %-4s skipped (needs >= %d devices, have %d)\n"
              c.Litmus.case_name config.Config.name c.Litmus.min_devices
              (cpus + gpus)
          else begin
            let out =
              match out with
              | Some o -> o
              | None ->
                Printf.sprintf "CHECK_%s_%s.jsonl" c.Litmus.case_name
                  config.Config.name
            in
            let t0 = Unix.gettimeofday () in
            let o =
              Checker.check_and_report ~max_states ~budget_secs ~fault_budget
                ~reduce:(not no_reduce) ?seed_bug ~llc_banks ~case:c ~config
                ~cpus ~gpus ~faults ~out ()
            in
            Printf.printf
              "%-8s %-4s states=%-7d executions=%-6d transitions=%-8d \
               wall=%.2fs%s\n"
              c.Litmus.case_name config.Config.name o.Checker.o_states
              o.Checker.o_executions o.Checker.o_transitions
              (Unix.gettimeofday () -. t0)
              (if o.Checker.o_truncated then
                 " TRUNCATED (raise --max-states / --budget-secs)"
               else "");
            match o.Checker.o_violation with
            | None -> ()
            | Some (v, steps) ->
              violated := true;
              Printf.printf "  VIOLATION: %s\n" (Checker.violation_descr v);
              Printf.printf "  counterexample: %d steps -> %s (replay with \
                             'spandex_cli check --replay %s')\n"
                (List.length steps) out out
          end)
        cases;
      if !violated then exit 1
  in
  let case_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "case" ]
          ~doc:
            (Printf.sprintf
               "Litmus case to explore; one of: %s (default: all)."
               (String.concat ", "
                  (List.map (fun c -> c.Litmus.case_name) Litmus.all))))
  in
  let check_cpus_arg =
    Arg.(value & opt int 2 & info [ "cpus" ] ~doc:"CPU device count.")
  in
  let check_gpus_arg =
    Arg.(value & opt int 0 & info [ "gpus" ] ~doc:"GPU device count.")
  in
  let llc_banks_arg =
    Arg.(
      value & opt int 1
      & info [ "llc-banks" ]
          ~doc:
            "Explore with this many address-interleaved LLC banks.  \
             Banking must be invisible to the protocol: every case must \
             reach the same verdict for any bank count.")
  in
  let faults_arg =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Add message drop/duplicate choice points (bounded by \
             --fault-budget per execution) on top of delivery order.")
  in
  let fault_budget_arg =
    Arg.(
      value & opt int 1
      & info [ "fault-budget" ]
          ~doc:"Maximum fault actions per explored execution.")
  in
  let max_states_arg =
    Arg.(
      value & opt int 200_000
      & info [ "max-states" ]
          ~doc:"Stop after this many distinct explored states.")
  in
  let budget_secs_arg =
    Arg.(
      value & opt float 120.0
      & info [ "budget-secs" ] ~doc:"Wall-clock budget for the search.")
  in
  let no_reduce_arg =
    Arg.(
      value & flag
      & info [ "no-reduce" ]
          ~doc:"Skip counterexample minimization (keep the raw schedule).")
  in
  let seed_bug_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "seed-bug" ]
          ~doc:
            (Printf.sprintf
               "Wire a deliberate protocol bug into every L1 endpoint to \
                validate the oracle; one of: %s."
               (String.concat ", "
                  (List.map Checker.bug_name Checker.all_bugs))))
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ]
          ~doc:
            "Counterexample path (default CHECK_<case>_<config>.jsonl); in \
             --replay mode, the Perfetto trace path (default \
             CHECK_replay.trace.json).")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Re-execute a counterexample JSONL deterministically, print its \
             schedule, and export a Perfetto timeline of the violating run.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustively explore every message-delivery interleaving of small \
          DRF litmus programs under one cache configuration, checking SWMR, \
          LLC ownership registration, data values, and deadlock-freedom at \
          every choice point.  Violations are written as replayable JSONL \
          counterexamples.")
    Term.(
      const run $ case_arg $ config_arg $ check_cpus_arg $ check_gpus_arg
      $ llc_banks_arg $ faults_arg $ fault_budget_arg $ max_states_arg
      $ budget_secs_arg $ no_reduce_arg $ seed_bug_arg $ out_arg $ replay_arg)

let soak_cmd =
  let run seeds =
    let params =
      { Params.bench with Params.cpu_cores = 2; gpu_cus = 2; warps_per_cu = 2 }
    and tiny =
      {
        Params.small with
        Params.cpu_cores = 2;
        gpu_cus = 2;
        warps_per_cu = 2;
        mem_latency = 15;
      }
    and geom = { Spandex_workloads.Microbench.cpus = 2; cus = 2; warps = 2 } in
    let fails = ref 0 and runs = ref 0 in
    for seed = 1 to seeds do
      List.iter
        (fun (p, spec) ->
          let wl = Spandex_workloads.Stress.generate spec geom in
          List.iter
            (fun config ->
              incr runs;
              match Run.simulate ~params:p ~config wl with
              | r -> (
                try Run.assert_clean r
                with Failure m ->
                  incr fails;
                  Printf.printf "FAIL %s seed=%d: %s\n%!" config.Config.name
                    seed m)
              | exception e ->
                incr fails;
                Printf.printf "CRASH %s seed=%d: %s\n%!" config.Config.name
                  seed (Printexc.to_string e))
            Config.extended)
        [
          ( params,
            {
              Spandex_workloads.Stress.default_spec with
              Spandex_workloads.Stress.seed;
              phases = 6;
              hot_fraction = 0.6;
            } );
          ( tiny,
            {
              Spandex_workloads.Stress.default_spec with
              Spandex_workloads.Stress.seed;
              phases = 4;
              words = 1536;
            } );
        ]
    done;
    Printf.printf "soak: %d runs, %d failures\n" !runs !fails;
    if !fails > 0 then exit 1
  in
  let seeds_arg =
    Arg.(value & opt int 25 & info [ "seeds" ] ~doc:"Random seeds to soak.")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Randomized SC-for-DRF litmus soak: every seed builds a fresh \
          data-race-free program whose checked loads verify the protocols \
          on all configurations (contended and capacity-pressure variants)")
    Term.(const run $ seeds_arg)

let () =
  let info =
    Cmd.info "spandex_cli" ~version:"1.0"
      ~doc:"Spandex heterogeneous-coherence simulator (ISCA 2018 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            sweep_cmd;
            trace_cmd;
            explain_cmd;
            metrics_cmd;
            check_cmd;
            soak_cmd;
          ]))
