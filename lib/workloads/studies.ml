module Config = Spandex_system.Config
module Params = Spandex_system.Params
module Sweep = Spandex_system.Sweep
module Run = Spandex_system.Run

type t = { title : string; note : string; jobs : Sweep.job list }

let params = Params.bench
let geometry = Registry.geometry_of_params params

let job ?(params = params) label config workload =
  { Sweep.label; params; config; workload }

let regions () =
  let full = Microbench.region_reuse ~scale:1.0 ~use_regions:false geometry in
  let sel = Microbench.region_reuse ~scale:1.0 ~use_regions:true geometry in
  {
    title = "Ablation: DeNovo regions (paper II-C selective self-invalidation)";
    note =
      "region-selective acquires preserve read-only data in self-invalidating\n\
       caches; writer-invalidated (MESI) configurations are unaffected.";
    jobs =
      List.concat_map
        (fun (c : Config.t) ->
          [
            job (c.Config.name ^ " full-flush") c full;
            job (c.Config.name ^ " regions") c sel;
          ])
        [ Config.smg; Config.sdg; Config.sdd ];
  }

let hierarchy () =
  let wl = Microbench.indirection ~scale:0.5 geometry in
  {
    title = "Ablation: hierarchy distance (cross-cluster hop latency)";
    note =
      "indirection, HMG vs SMG: the hierarchical penalty grows with the\n\
       CPU<->GPU distance its indirection must round-trip.";
    jobs =
      List.concat_map
        (fun cross ->
          let params = { params with Params.cross_net_latency = cross } in
          List.map
            (fun (c : Config.t) ->
              let label = Printf.sprintf "cross=%d %s" cross c.Config.name in
              job ~params label c wl)
            [ Config.hmg; Config.smg ])
        [ 8; 16; 32; 64 ];
  }

let reqs () =
  let wl = Microbench.reuses ~scale:1.0 geometry in
  {
    title =
      "Ablation: ReqS handling options (1)/(2)/(3) (paper III-B, Table III)";
    note =
      "ReuseS on SMD, where MESI CPU reads hit the flat Spandex LLC; auto is\n\
       the paper's evaluation.";
    jobs =
      List.map
        (fun (label, reqs_policy) ->
          job ~params:{ params with Params.reqs_policy } label Config.smd wl)
        [
          ("auto", Spandex.Llc.Reqs_auto);
          ("always (1) Shared", Spandex.Llc.Reqs_shared);
          ("always (2) Valid", Spandex.Llc.Reqs_valid);
          ("always (3) Owned", Spandex.Llc.Reqs_owned);
        ];
  }

let banks () =
  let wl = Microbench.indirection ~scale:1.0 geometry in
  {
    title = "Ablation: LLC bank-level parallelism (Table VI NUCA banks)";
    note = "indirection on SMG: all 40 cores hammer the flat LLC.";
    jobs =
      List.map
        (fun llc_banks ->
          job ~params:{ params with Params.llc_banks }
            (Printf.sprintf "banks=%d" llc_banks)
            Config.smg wl)
        [ 1; 2; 4; 8 ];
  }

let coalescing () =
  let wl = Microbench.reuseo ~scale:1.0 geometry in
  {
    title = "Ablation: store-buffer coalescing window (paper II-B coalescing)";
    note = "reuseo on SMG: streaming write-throughs from the GPU.";
    jobs =
      List.map
        (fun coalesce_window ->
          job ~params:{ params with Params.coalesce_window }
            (Printf.sprintf "window=%d" coalesce_window)
            Config.smg wl)
        [ 1; 6; 16 ];
  }

let adaptive () =
  {
    title =
      "Extension: adaptive write policy (paper V's dynamically-adapting caches)";
    note =
      "SDA = SDD with a per-line reuse predictor choosing ReqO vs ReqWT per\n\
       store; SAA adds read-side adaptation (repeatedly missed lines promote\n\
       ReqV to ReqO+data).";
    jobs =
      List.concat_map
        (fun name ->
          let wl = (Registry.find name).Registry.build ~scale:1.0 geometry in
          List.map
            (fun (c : Config.t) -> job (name ^ " " ^ c.Config.name) c wl)
            [ Config.sdg; Config.sdd; Config.sda; Config.saa ])
        [ "reuseo"; "bc"; "indirection" ];
  }

let ablations () =
  [ regions (); hierarchy (); reqs (); banks (); coalescing (); adaptive () ]

(* One line per cell, in a vertical box so short lines never share one. *)
let pp_lines pp_line fmt cells =
  Format.fprintf fmt "@[<v>%a@]" (Format.pp_print_list pp_line) cells

let pp_cells =
  pp_lines (fun fmt (label, (r : Run.result)) ->
      Format.fprintf fmt "  %-18s %8d cyc %9d flits" label r.Run.cycles
        r.Run.total_flits)

(* ----- Table II: observed request generation per device protocol ---------- *)

let table2 () =
  let open Spandex_proto in
  let at line word = Addr.make ~line ~word in
  let program =
    Spandex_device.Program.of_ops
      Spandex_device.Ops.
        [| Load (at 1 0); Store (at 2 3, 42); Rmw (at 3 1, Amo.Add 1); Release |]
  in
  let scenario label config ~gpu_side =
    job label config
      {
        Spandex_system.Workload.name = "table2";
        cpu_programs = (if gpu_side then [||] else [| program |]);
        gpu_programs = (if gpu_side then [| [| program |] |] else [||]);
        barrier_parties = [||];
        region_of = (fun _ -> 0);
      }
  in
  [
    scenario "GPU coherence" Config.smg ~gpu_side:true;
    scenario "DeNovo" Config.sdd ~gpu_side:true;
    scenario "MESI" Config.smg ~gpu_side:false;
  ]

(* The request kinds that crossed the network, from the "net.<kind>"
   message counters. *)
let requests_sent (r : Run.result) =
  Spandex_util.Stats.to_assoc r.Run.stats
  |> List.filter_map (fun (k, v) ->
         if v > 0 && String.starts_with ~prefix:"net.Req" k then
           Some (String.sub k 4 (String.length k - 4))
         else None)
  |> List.sort_uniq String.compare

let pp_table2 =
  pp_lines (fun fmt (label, r) ->
      Format.fprintf fmt "  %-14s load/store/RMW/eviction emit: %s" label
        (String.concat ", " (requests_sent r)))
