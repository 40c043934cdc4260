(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md §5 for the index), then the §III-F
   storage accounting and the ablations.  It is a printer: every simulated
   number comes from [Report.simulate_jobs] (the figures through
   [Report.simulate_rows]), the path test/figures.ml pins.

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
module Studies = Spandex_workloads.Studies

let params = Params.bench
let geometry = Registry.geometry_of_params params

(* Worker domains for the simulations below; every simulation is
   independent and results come back in submission order, so the printed
   tables are identical for any value (test/test_sweep.ml asserts this). *)
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

(* Not a static table: one tiny single-device scenario per protocol, and the
   request kinds its L1 actually put on the network. *)
let table2 () =
  section "Table II: Requests generated per device protocol (observed)";
  Format.printf "%a@." Studies.pp_table2
    (Report.simulate_jobs ~jobs:!jobs (Studies.table2 ()))

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

let ablations () =
  List.iter
    (fun (study : Studies.t) ->
      section study.Studies.title;
      print_endline study.Studies.note;
      Format.printf "%a@." Studies.pp_cells
        (Report.simulate_jobs ~jobs:!jobs study.Studies.jobs))
    (Studies.ablations ())

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
