(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md §5 for the index), then the §III-F
   storage accounting and the ablations.

   Absolute numbers come from our event-driven model, not the authors'
   Simics/GEMS/GPGPU-Sim testbed; the comparisons are normalized to HMG as
   in the paper, and the shapes — who wins, roughly by how much — are the
   reproduction target (EXPERIMENTS.md records paper-vs-measured). *)

module Msg = Spandex_proto.Msg
module Config = Spandex_system.Config
module Params = Spandex_system.Params
module Run = Spandex_system.Run
module Sweep = Spandex_system.Sweep
module Report = Spandex_system.Report
module Registry = Spandex_workloads.Registry
module Microbench = Spandex_workloads.Microbench
module Apps = Spandex_workloads.Apps

let params = Params.bench
let geometry = Registry.geometry_of_params params

(* Worker domains for the sweeps below; every simulation is independent and
   [Sweep.map] returns results in submission order, so the printed tables
   are identical for any value (test/test_sweep.ml asserts this). *)
let jobs = ref (Sweep.default_jobs ())

let () =
  Arg.parse
    [
      ( "--jobs",
        Arg.Set_int jobs,
        "N  worker domains for simulation sweeps (default: cores - 1)" );
    ]
    (fun a -> raise (Arg.Bad ("unknown argument: " ^ a)))
    "spandex_bench [--jobs N]"

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ----- Table I: coherence strategy classification -------------------------- *)

let table1 () =
  section "Table I: Coherence strategy classification";
  Printf.printf "%-14s %-18s %-18s %s\n" "Strategy" "Stale invalidation"
    "Write propagation" "Granularity";
  Printf.printf "%-14s %-18s %-18s %s\n" "MESI" "writer-invalidate" "ownership"
    "line";
  Printf.printf "%-14s %-18s %-18s %s\n" "GPU coherence" "self-invalidate"
    "write-through" "loads: line, stores: word";
  Printf.printf "%-14s %-18s %-18s %s\n" "DeNovo" "self-invalidate"
    "ownership" "loads: flexible, stores: word"

(* ----- Table II: observed request generation per device protocol ----------- *)

(* Not a static table: run one tiny single-device scenario per protocol and
   report the request kinds its L1 actually put on the network. *)
let table2 () =
  section "Table II: Requests generated per device protocol (observed)";
  let program =
    [|
      Spandex_device.Ops.Load (Spandex_proto.Addr.make ~line:1 ~word:0);
      Spandex_device.Ops.Store (Spandex_proto.Addr.make ~line:2 ~word:3, 42);
      Spandex_device.Ops.Rmw
        (Spandex_proto.Addr.make ~line:3 ~word:1, Spandex_proto.Amo.Add 1);
      Spandex_device.Ops.Release;
    |]
  in
  let observe ~name ~config ~gpu_side =
    let wl =
      {
        Spandex_system.Workload.name = "table2";
        cpu_programs = (if gpu_side then [||] else [| program |]);
        gpu_programs = (if gpu_side then [| [| program |] |] else [||]);
        barrier_parties = [||];
        region_of = (fun _ -> 0);
      }
    in
    let r = Run.simulate ~params ~config wl in
    let reqs =
      Spandex_util.Stats.to_assoc r.Run.stats
      |> List.filter_map (fun (k, v) ->
             if v > 0 && String.length k > 7 && String.sub k 0 4 = "net." then
               let s = String.sub k 4 (String.length k - 4) in
               if String.length s >= 3 && String.sub s 0 3 = "Req" then Some s
               else None
             else None)
      |> List.sort_uniq String.compare
    in
    Printf.printf "%-14s load/store/RMW/eviction emit: %s\n" name
      (String.concat ", " reqs)
  in
  observe ~name:"GPU coherence" ~config:Config.smg ~gpu_side:true;
  observe ~name:"DeNovo" ~config:Config.sdd ~gpu_side:true;
  observe ~name:"MESI" ~config:Config.smg ~gpu_side:false

(* ----- Tables III & IV: implemented transition logic ----------------------- *)

let table3 () =
  section "Table III: Spandex LLC transitions (as implemented in Spandex.Llc)";
  List.iter
    (fun (req, next, fwd) ->
      Printf.printf "%-13s next=%-3s fwd_to_owner=%s\n" req next fwd)
    [
      ("ReqV", "-", "ReqV");
      ("ReqS (1)", "S", "ReqS (blocking write-back)");
      ("ReqS (3)", "O", "ReqO+data");
      ("ReqWT", "V", "ReqO (revoke, no data)");
      ("ReqO", "O", "ReqO");
      ("ReqWT+data", "V", "RvkO (blocking write-back)");
      ("ReqO+data", "O", "ReqO+data");
      ("ReqWB(owner)", "V", "-");
      ("ReqWB(other)", "-", "- (acknowledged, dropped)");
    ];
  Printf.printf "(asserted by unit tests in test/test_llc.ml)\n"

let table4 () =
  section "Table IV: device transitions on external requests (as implemented)";
  List.iter
    (fun (req, exp, next, rsp) ->
      Printf.printf "%-10s expected=%-2s next=%-2s response=%s\n" req exp next
        rsp)
    [
      ("ReqV", "O", "O", "RspV to requestor (Nack if no longer owner)");
      ("ReqO", "O", "I", "RspO to requestor");
      ("ReqO+data", "O", "I", "RspO+data to requestor");
      ("RvkO", "O", "I", "RspRvkO to LLC");
      ("Inv", "S", "I", "Ack to LLC (silently acked in other states)");
      ("ReqS", "O", "S", "RspS to requestor + RspRvkO to LLC");
    ];
  Printf.printf "(asserted by unit tests in test/test_devices.ml)\n"

(* ----- Tables V-VII --------------------------------------------------------- *)

let table5 () =
  section "Table V: simulated cache configurations";
  List.iter (fun c -> Printf.printf "%s\n" (Config.describe c)) Config.all

let table6 () =
  section "Table VI: system parameters (scaled; DESIGN.md par.5)";
  Format.printf "%a@." Params.pp params

let table7 () =
  section "Table VII: collaborative application characterization";
  Printf.printf "%-6s %-6s %-12s %-13s %s\n" "App" "Part." "Sync" "Sharing"
    "Locality";
  List.iter
    (fun (n, p, s, sh, l) ->
      Printf.printf "%-6s %-6s %-12s %-13s %s\n" n p s sh l)
    [
      ("BC", "data", "fine-grain", "flat", "atomics: high");
      ("PR", "data", "coarse-grain", "flat", "data: moderate");
      ("HSTI", "data", "fine-grain", "flat", "data: low, atomics: high");
      ("TRNS", "data", "fine-grain", "flat", "low");
      ("RSCT", "task", "fine-grain", "hierarchical", "data: high, atomics: low");
      ("TQH", "task", "fine-grain", "hierarchical", "data: low, atomics: high");
    ]

(* ----- Figures 2 and 3 ------------------------------------------------------- *)

(* The rows and headline come from [Report.simulate_rows], the same path
   test/figures.ml pins; only the per-category traffic shares are local. *)
let figure ~title ~paper benches =
  section title;
  let rows =
    Report.simulate_rows ~jobs:!jobs ~params ~configs:Config.all
      (List.map
         (fun (name, build) -> (name, build ?scale:(Some 1.0) geometry))
         benches)
  in
  List.iter
    (fun (row : Report.row) ->
      Format.printf "%a@." Report.pp_row row;
      List.iter
        (fun (cell : Report.cell) ->
          Printf.printf "  %s flits by category: " cell.Report.config;
          List.iter
            (fun (cat, share) ->
              if share > 0.005 then
                Printf.printf "%s=%.0f%% " (Msg.category_name cat)
                  (100.0 *. share))
            (Report.traffic_share cell.Report.result);
          Printf.printf "(total %d)\n" cell.Report.result.Run.total_flits)
        row.Report.cells)
    rows;
  Printf.printf "headline (paper: %s)\n" paper;
  Format.printf "%a@." Report.pp_headline (Report.headline rows)

(* ----- III-F: storage-overhead accounting ------------------------------------- *)

(* The paper argues Spandex's word-granularity ownership costs one state
   bit per word (owner IDs live in the data field of owned words) versus a
   line-granularity MESI directory's sharer vector, and that a state-only
   Spandex LLC cannot match a state-only directory.  Compute both for the
   simulated geometry. *)
let overheads () =
  section "III-F: coherence-state storage per LLC line (this geometry)";
  let devices = params.Params.cpu_cores + params.Params.gpu_cus in
  let words = Spandex_proto.Addr.words_per_line in
  let spandex_bits =
    (* 2 line-state bits + 1 owned bit per word; owner IDs reuse the data
       field of owned words. *)
    2 + words
  in
  let mesi_dir_bits =
    (* 2-3 state bits + a full sharer bit-vector. *)
    3 + devices
  in
  let owner_id_bits = int_of_float (ceil (log (float_of_int devices) /. log 2.0)) in
  let state_only_spandex = 2 + (words * (1 + owner_id_bits)) in
  Printf.printf
    "  devices=%d, words/line=%d\n\
    \  Spandex LLC (inclusive, IDs in data field): %d bits/line\n\
    \  MESI directory (line granularity):          %d bits/line\n\
    \  state-only Spandex (IDs in state):          %d bits/line  (cannot match\n\
    \    a state-only directory, as III-F notes)\n"
    devices words spandex_bits mesi_dir_bits state_only_spandex;
  Printf.printf
    "  request vocabulary: %d request kinds -> %d message-id bits (MESI-style\n\
    \  protocols need >= 3; at most one extra bit, as III-F claims)\n"
    7
    (int_of_float (ceil (log 16.0 /. log 2.0)))

(* ----- Ablations of the design choices DESIGN.md calls out -------------------- *)

let run_with ~params ~config wl =
  let r = Run.simulate ~params ~config wl in
  Run.assert_clean r;
  r

(* Run an ablation's simulations across domains, keeping the print loop
   sequential: [points] describes each simulation, [show] consumes the
   results in submission order. *)
let sweep_with points ~sim ~show =
  let results = Array.of_list (Sweep.map ~jobs:!jobs sim points) in
  show results

let ablation_regions () =
  section "Ablation: DeNovo regions (paper II-C selective self-invalidation)";
  Printf.printf
    "region-selective acquires preserve read-only data in self-invalidating\n\
     caches; writer-invalidated (MESI) configurations are unaffected.\n";
  let configs = [ Config.smg; Config.sdg; Config.sdd ] in
  let points =
    List.concat_map
      (fun config -> [ (config, true); (config, false) ])
      configs
  in
  sweep_with points
    ~sim:(fun (config, use_regions) ->
      run_with ~params ~config
        (Microbench.region_reuse ~scale:1.0 ~use_regions geometry))
    ~show:(fun results ->
      List.iteri
        (fun i config ->
          let with_r = results.(2 * i) in
          let without = results.((2 * i) + 1) in
          Printf.printf
            "  %-4s full-flush: %7d cyc %8d flits | regions: %7d cyc %8d flits \
             (%.0f%% time, %.0f%% traffic)\n"
            config.Config.name without.Run.cycles without.Run.total_flits
            with_r.Run.cycles with_r.Run.total_flits
            (100.0
            *. (1.0 -. float_of_int with_r.Run.cycles /. float_of_int without.Run.cycles))
            (100.0
            *. (1.0
               -. float_of_int with_r.Run.total_flits
                  /. float_of_int without.Run.total_flits)))
        configs)

let ablation_reqs_policy () =
  section "Ablation: ReqS handling options (1)/(2)/(3) (paper III-B, Table III)";
  Printf.printf
    "ReuseS on SMD, where MESI CPU reads hit the flat Spandex LLC:\n";
  let wl = Microbench.reuses ~scale:1.0 geometry in
  let points =
    [
      ("auto (paper's evaluation)", Spandex.Llc.Reqs_auto);
      ("always option 1 (Shared)", Spandex.Llc.Reqs_shared);
      ("always option 2 (Valid)", Spandex.Llc.Reqs_valid);
      ("always option 3 (Owned)", Spandex.Llc.Reqs_owned);
    ]
  in
  sweep_with points
    ~sim:(fun (_, policy) ->
      let p = { params with Params.reqs_policy = policy } in
      run_with ~params:p ~config:Config.smd wl)
    ~show:(fun results ->
      List.iteri
        (fun i (name, _) ->
          let r = results.(i) in
          Printf.printf "  %-28s %7d cyc %8d flits\n" name r.Run.cycles
            r.Run.total_flits)
        points)

let ablation_llc_banks () =
  section "Ablation: LLC bank-level parallelism (Table VI NUCA banks)";
  Printf.printf "indirection on SMG: all 40 cores hammer the flat LLC.\n";
  let wl = Microbench.indirection ~scale:1.0 geometry in
  let points = [ 1; 2; 4; 8 ] in
  sweep_with points
    ~sim:(fun banks ->
      let p = { params with Params.llc_banks = banks } in
      run_with ~params:p ~config:Config.smg wl)
    ~show:(fun results ->
      List.iteri
        (fun i banks ->
          let r = results.(i) in
          Printf.printf "  %2d bank(s): %8d cyc %9d flits\n" banks r.Run.cycles
            r.Run.total_flits)
        points)

let ablation_coalescing () =
  section "Ablation: store-buffer coalescing window (paper II-B coalescing)";
  Printf.printf "reuseo on SMG: streaming write-throughs from the GPU.\n";
  let wl = Microbench.reuseo ~scale:1.0 geometry in
  let points = [ 1; 6; 16 ] in
  sweep_with points
    ~sim:(fun window ->
      let p = { params with Params.coalesce_window = window } in
      run_with ~params:p ~config:Config.smg wl)
    ~show:(fun results ->
      List.iteri
        (fun i window ->
          let r = results.(i) in
          Printf.printf "  window %2d: %8d cyc %9d flits\n" window r.Run.cycles
            r.Run.total_flits)
        points)

let extension_adaptive () =
  section "Extension: adaptive write policy (paper V's dynamically-adapting caches)";
  Printf.printf
    "SDA = SDD with a per-line reuse predictor choosing ReqO vs ReqWT per\n\
     store; SAA adds read-side adaptation (repeatedly missed lines promote\n\
     ReqV to ReqO+data).  The goal is to track the better static policy\n\
     per workload.\n";
  let wnames = [ "reuseo"; "bc"; "indirection" ] in
  let configs = [ Config.sdg; Config.sdd; Config.sda; Config.saa ] in
  let points =
    List.concat_map
      (fun wname ->
        let wl = (Registry.find wname).Registry.build ~scale:1.0 geometry in
        List.map (fun config -> (wname, config, wl)) configs)
      wnames
  in
  sweep_with points
    ~sim:(fun (_, config, wl) -> run_with ~params ~config wl)
    ~show:(fun results ->
      let ncfg = List.length configs in
      List.iteri
        (fun i wname ->
          Printf.printf "  %-12s" wname;
          List.iteri
            (fun j config ->
              let r = results.((i * ncfg) + j) in
              Printf.printf " %s: %7d cyc %8d flits |" config.Config.name
                r.Run.cycles r.Run.total_flits)
            configs;
          Printf.printf "\n")
        wnames)

let ablation_hierarchy_distance () =
  section "Ablation: hierarchy distance (cross-cluster hop latency)";
  Printf.printf
    "indirection, HMG vs SMG: the hierarchical penalty grows with the\n\
     CPU<->GPU distance its indirection must round-trip.\n";
  let wl = Microbench.indirection ~scale:0.5 geometry in
  let crosses = [ 8; 16; 32; 64 ] in
  let points =
    List.concat_map
      (fun cross -> [ (cross, Config.hmg); (cross, Config.smg) ])
      crosses
  in
  sweep_with points
    ~sim:(fun (cross, config) ->
      let p = { params with Params.cross_net_latency = cross } in
      run_with ~params:p ~config wl)
    ~show:(fun results ->
      List.iteri
        (fun i cross ->
          let h = results.(2 * i) in
          let s = results.((2 * i) + 1) in
          Printf.printf
            "  cross=%2d: HMG %7d cyc | SMG %7d cyc | Spandex %.0f%% faster\n"
            cross h.Run.cycles s.Run.cycles
            (100.0
            *. (1.0 -. float_of_int s.Run.cycles /. float_of_int h.Run.cycles)))
        crosses)

let ablations () =
  ablation_regions ();
  ablation_hierarchy_distance ();
  ablation_reqs_policy ();
  ablation_llc_banks ();
  ablation_coalescing ();
  extension_adaptive ()

let () =
  Printf.printf "Spandex reproduction harness (Alsop, Sinclair, Adve - ISCA 2018)\n";
  table1 ();
  table2 ();
  table3 ();
  table4 ();
  table5 ();
  table6 ();
  table7 ();
  figure ~title:"Figure 2: synthetic microbenchmarks (normalized to HMG)"
    ~paper:"Sbest vs Hbest avg 18% time / 40% traffic" Microbench.all;
  figure ~title:"Figure 3: collaborative applications (normalized to HMG)"
    ~paper:"Sbest vs Hbest avg 16% time / 27% traffic" Apps.all;
  overheads ();
  ablations ();
  Printf.printf "\ndone.\n"
