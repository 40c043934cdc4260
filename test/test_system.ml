(* System-level integration tests: configuration wiring, banking,
   statistics, reports, and cross-configuration result invariants. *)

module Config = Spandex_system.Config
module Params = Spandex_system.Params
module Run = Spandex_system.Run
module Report = Spandex_system.Report
module Workload = Spandex_system.Workload
module Registry = Spandex_workloads.Registry
module Microbench = Spandex_workloads.Microbench
module Msg = Spandex_proto.Msg

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let geom = { Microbench.cpus = 2; cus = 2; warps = 2 }

let params =
  { Params.bench with Params.cpu_cores = 2; gpu_cus = 2; warps_per_cu = 2 }

let run_micro name config =
  let wl = (Registry.find name).Registry.build ~scale:0.25 geom in
  let r = Run.simulate ~params ~config wl in
  Run.assert_clean r;
  r

let configs_cover_table_v () =
  check_int "six configurations" 6 (List.length Config.all);
  Alcotest.(check (list string))
    "paper order"
    [ "HMG"; "HMD"; "SMG"; "SMD"; "SDG"; "SDD" ]
    (List.map (fun c -> c.Config.name) Config.all);
  check_bool "lookup is case-insensitive" true (Config.by_name "smd" == Config.smd);
  check_bool "only SDG does CPU atomics at LLC" true
    (List.for_all
       (fun c -> c.Config.cpu_atomics_at_llc = (c.Config.name = "SDG"))
       Config.all);
  Alcotest.(check (list string))
    "extended set appends the adaptive configurations"
    [ "HMG"; "HMD"; "SMG"; "SMD"; "SDG"; "SDD"; "SDA"; "SAA" ]
    (List.map (fun c -> c.Config.name) Config.extended);
  check_bool "extended lookup" true (Config.by_name "saa" == Config.saa)

let simulation_deterministic () =
  let a = run_micro "reuseo" Config.smd in
  let b = run_micro "reuseo" Config.smd in
  check_int "cycles identical" a.Run.cycles b.Run.cycles;
  check_int "flits identical" a.Run.total_flits b.Run.total_flits;
  check_int "messages identical" a.Run.messages b.Run.messages

let traffic_breakdown_sums () =
  let r = run_micro "indirection" Config.sdd in
  let sum = List.fold_left (fun acc (_, n) -> acc + n) 0 r.Run.traffic in
  check_int "categories sum to total" r.Run.total_flits sum

let protocol_vocabulary_respected () =
  (* No write-through requests in an all-ownership configuration, and no
     ownership requests from a pure GPU-coherence/MESI... (SMG: MESI uses
     ReqO+data which is Cat_ReqO, so only check SDD's WT absence and that
     GPU coherence emits no ReqO in SDG's GPU). *)
  let r = run_micro "indirection" Config.sdd in
  let wt = List.assoc Msg.Cat_ReqWT r.Run.traffic in
  check_int "no write-through traffic in SDD" 0 wt;
  let r2 = run_micro "indirection" Config.hmg in
  check_bool "write-through traffic present in HMG" true
    (List.assoc Msg.Cat_ReqWT r2.Run.traffic > 0)

let hierarchical_uses_probe_traffic () =
  let r = run_micro "reuses" Config.hmg in
  check_bool "invalidations occurred" true
    (List.assoc Msg.Cat_Probe r.Run.traffic > 0)

let stats_are_collected () =
  let r = run_micro "reuseo" Config.hmd in
  let s = r.Run.stats in
  check_bool "dir counters" true (Spandex_util.Stats.get s "mesi_dir.hit" > 0);
  check_bool "l2 counters" true (Spandex_util.Stats.get s "gpu_l2.hit" > 0);
  check_bool "l1 counters" true
    (Spandex_util.Stats.get s "mesi_l1.0.load_hit" > 0);
  check_bool "core counters" true (Spandex_util.Stats.get s "core.0.ops" > 0)

let banking_preserved_correctness () =
  List.iter
    (fun banks ->
      let p = { params with Params.llc_banks = banks } in
      let wl = (Registry.find "stress").Registry.build ~scale:0.5 geom in
      List.iter
        (fun config ->
          let r = Run.simulate ~params:p ~config wl in
          Run.assert_clean r)
        Config.all)
    [ 1; 4 ]

let geometry_subsets_work () =
  (* CPU-only and GPU-only systems. *)
  let cpu_only =
    {
      Workload.name = "cpu-only";
      cpu_programs =
        [|
          Spandex_device.Program.of_ops
            [|
              Spandex_device.Ops.Store (Spandex_proto.Addr.make ~line:0 ~word:0, 1);
              Spandex_device.Ops.Release;
              Spandex_device.Ops.Check (Spandex_proto.Addr.make ~line:0 ~word:0, 1);
            |];
        |];
      gpu_programs = [||];
      barrier_parties = [||];
      region_of = (fun _ -> 0);
    }
  in
  List.iter
    (fun config -> Run.assert_clean (Run.simulate ~params ~config cpu_only))
    Config.all

let report_normalization () =
  let wl = (Registry.find "reuseo").Registry.build ~scale:0.25 geom in
  let cells =
    List.map
      (fun config ->
        { Report.config = config.Config.name; result = Run.simulate ~params ~config wl })
      Config.all
  in
  let row = { Report.workload = "reuseo"; cells } in
  let norm = Report.normalized row ~metric:Report.cycles in
  check_bool "HMG is 1.0" true (List.assoc "HMG" norm = 1.0);
  let h = Report.headline [ row ] in
  check_bool "headline in sane range" true
    (h.Report.time_avg > -1.0 && h.Report.time_avg < 1.0);
  let shares = Report.traffic_share (List.hd cells).Report.result in
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 shares in
  check_bool "shares sum to 1" true (abs_float (total -. 1.0) < 1e-9)

let checks_catch_wrong_data () =
  (* The oracle must actually detect wrong values. *)
  let wl =
    {
      Workload.name = "bad-check";
      cpu_programs =
        [|
          Spandex_device.Program.of_ops
            [|
              Spandex_device.Ops.Store (Spandex_proto.Addr.make ~line:0 ~word:0, 1);
              Spandex_device.Ops.Release;
              Spandex_device.Ops.Check (Spandex_proto.Addr.make ~line:0 ~word:0, 999);
            |];
        |];
      gpu_programs = [||];
      barrier_parties = [||];
      region_of = (fun _ -> 0);
    }
  in
  let r = Run.simulate ~params ~config:Config.smd wl in
  check_int "failure recorded" 1 (List.length r.Run.failures);
  match Run.assert_clean r with
  | () -> Alcotest.fail "assert_clean must raise"
  | exception Failure _ -> ()

let workload_too_big_rejected () =
  let wl =
    {
      Workload.name = "too-many-cpus";
      cpu_programs = Array.make 9 (Spandex_device.Program.of_ops [||]);
      gpu_programs = [||];
      barrier_parties = [||];
      region_of = (fun _ -> 0);
    }
  in
  match Run.simulate ~params ~config:Config.smd wl with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* The two spellings every device is known by (run.mli, "Device names"),
   pinned for one id of each device class: a rename fails here, naming the
   configuration, the id and the spelling that moved, before it reaches a
   golden digest. *)
let device_table_spellings () =
  let cpus = params.Params.cpu_cores and banks = params.Params.llc_banks in
  let gpu j = cpus + j and home b = cpus + params.Params.gpu_cus + b in
  let l2 b = home banks + b in
  let client = l2 banks in
  (* (config, [ (id, device name, label) ]).  The label is the stats key
     prefix and, for an L1, the view name; [""] marks a row the
     configuration lays out but does not build. *)
  let expected =
    [
      ( Config.hmg,
        [ (0, "mesi_l1.0", "mesi_l1.0"); (gpu 1, "gpu_l1.1", "gpu_l1.3");
          (home 0, "dir.b0", "mesi_dir"); (home 1, "dir.b1", "mesi_dir");
          (l2 0, "gpu_l2.b0", "gpu_l2"); (client, "mesi_client", "mesi_client") ] );
      ( Config.smg,
        [ (1, "mesi_l1.1", "mesi_l1.1"); (gpu 1, "gpu_l1.1", "gpu_l1.3");
          (home 0, "llc.b0", "spandex_llc"); (l2 1, "gpu_l2.b1", "");
          (client, "mesi_client", "") ] );
      ( Config.sdd,
        [ (0, "denovo_l1.0", "denovo_l1.0");
          (gpu 0, "gpu_denovo_l1.0", "denovo_l1.2");
          (home 1, "llc.b1", "spandex_llc") ] );
      ( Config.saa,
        [ (1, "denovo_l1.1", "denovo_l1.1");
          (gpu 1, "gpu_denovo_l1.1", "denovo_l1.3");
          (home 0, "llc.b0", "spandex_llc") ] );
    ]
  in
  let wl = (Registry.find "indirection").Registry.build ~scale:0.25 geom in
  List.iter
    (fun ((config : Config.t), rows) ->
      let sys = Run.build ~params ~config wl in
      let r = sys.Run.sys_run () in
      Run.assert_clean r;
      let keys = Spandex_util.Stats.names r.Run.stats in
      List.iter
        (fun (id, name, label) ->
          let what k = Printf.sprintf "%s id %d: %s" config.Config.name id k in
          Alcotest.(check string)
            (what "device name") name sys.Run.sys_device_names.(id);
          Alcotest.(check string)
            (what "result device name") name r.Run.track_names.(id);
          if label <> "" then begin
            check_bool
              (what (Printf.sprintf "a stats key starts %S" (label ^ ".")))
              true
              (List.exists
                 (String.starts_with ~prefix:(label ^ "."))
                 keys);
            if id < home 0 then
              Alcotest.(check (option string))
                (what "view name") (Some label)
                (List.find_map
                   (fun v ->
                     if v.Run.view_id = id then Some v.Run.view_name else None)
                   sys.Run.sys_views)
          end)
        rows)
    expected

let tests =
  [
    test "configs_cover_table_v" configs_cover_table_v;
    test "simulation_deterministic" simulation_deterministic;
    test "traffic_breakdown_sums" traffic_breakdown_sums;
    test "protocol_vocabulary_respected" protocol_vocabulary_respected;
    test "hierarchical_uses_probe_traffic" hierarchical_uses_probe_traffic;
    test "stats_are_collected" stats_are_collected;
    test "banking_preserved_correctness" banking_preserved_correctness;
    test "geometry_subsets_work" geometry_subsets_work;
    test "report_normalization" report_normalization;
    test "checks_catch_wrong_data" checks_catch_wrong_data;
    test "workload_too_big_rejected" workload_too_big_rejected;
    test "device_table_spellings" device_table_spellings;
  ]
