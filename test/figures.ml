(* The paper contract, executable: Figures 2 and 3 and their Sbest-vs-Hbest
   headlines, 9 workloads x the six Table V configurations at scale 1 on
   [Params.bench], through the same [Report.simulate_rows] path as
   bench/main.exe.

     figures.exe EXPERIMENTS.md

   Prints each figure's rows and headline, then one line per shape
   predicate.  `dune runtest` diffs the output against figures.expected;
   `dune promote` accepts an intended move.  Exits 1, naming what failed,
   when a shape predicate does not hold or when EXPERIMENTS.md does not
   carry a printed figure block verbatim (the Headlines table's Measured
   column included), so the record cannot drift from the code. *)

module Config = Spandex_system.Config
module Params = Spandex_system.Params
module Report = Spandex_system.Report
module Registry = Spandex_workloads.Registry
module Microbench = Spandex_workloads.Microbench
module Apps = Spandex_workloads.Apps

let params = Params.bench
let geometry = Registry.geometry_of_params params

(* (title, label in EXPERIMENTS.md's Headlines table, workloads) *)
let figures =
  [
    ( "Figure 2: synthetic microbenchmarks (normalized to HMG)",
      "Microbenchmarks",
      Microbench.all );
    ( "Figure 3: collaborative applications (normalized to HMG)",
      "Applications",
      Apps.all );
  ]

(* ----- shape predicates ----------------------------------------------- *)

(* Each ✓ bullet under EXPERIMENTS.md's "Shape checks", over raw cycles and
   flits: the two-decimal values round away real orderings (TRNS SDG vs SMG
   is 0.67 vs 0.68). *)

let h = [ "HMG"; "HMD" ]
let s = [ "SMG"; "SMD"; "SDG"; "SDD" ]
let denovo_gpu = [ "HMD"; "SMD"; "SDD" ]
let gpu_coh = [ "HMG"; "SMG"; "SDG" ]

let shapes rows =
  let metric m w c =
    let row = List.find (fun (r : Report.row) -> r.Report.workload = w) rows in
    let cell =
      List.find (fun (x : Report.cell) -> x.Report.config = c) row.Report.cells
    in
    m cell.Report.result
  in
  let time = metric Report.cycles and traffic = metric Report.flits in
  (* Every config in [lo] strictly below every config in [hi]. *)
  let below m w lo hi =
    List.for_all (fun a -> List.for_all (fun b -> m w a < m w b) hi) lo
  in
  let both w lo hi = below time w lo hi && below traffic w lo hi in
  let halves m w = List.for_all (fun c -> 2 * m w c <= m w "HMG") in
  (* |m(a) - m(b)| as a fraction of HMG's m. *)
  let gap m w a b =
    float_of_int (abs (m w a - m w b)) /. float_of_int (m w "HMG")
  in
  let least m w cs = List.fold_left min max_int (List.map (m w) cs) in
  let most m w cs = List.fold_left max min_int (List.map (m w) cs) in
  let spread m w cs = most m w cs - least m w cs in
  [
    ("indirection.every_S_below_every_H", both "indirection" s h);
    ( "indirection.denovo_cpu_cuts_traffic",
      below traffic "indirection" [ "SDG" ] [ "SMG" ]
      && below traffic "indirection" [ "SDD" ] [ "SMD" ] );
    ( "indirection.sdg_le_sdd",
      time "indirection" "SDG" <= time "indirection" "SDD" );
    ( "reuseo.gpu_ownership_cuts_traffic",
      below traffic "reuseo" [ "HMD" ] [ "HMG" ]
      && below traffic "reuseo" [ "SMD"; "SDD" ] [ "SMG"; "SDG" ] );
    ( "reuseo.time_moves_less_than_traffic",
      List.for_all
        (fun (g, d) -> gap time "reuseo" g d < gap traffic "reuseo" g d)
        [ ("HMG", "HMD"); ("SMG", "SMD"); ("SDG", "SDD") ] );
    ( "reuses.mesi_cpu_beats_denovo_cpu",
      both "reuses" [ "SMG"; "SMD" ] [ "SDG"; "SDD" ] );
    ("bc.denovo_gpu_time_le_0.5", halves time "bc" denovo_gpu);
    ("bc.denovo_gpu_traffic_le_0.5", halves traffic "bc" denovo_gpu);
    ("bc.gpu_protocol_dominates", below time "bc" denovo_gpu gpu_coh);
    ( "bc.cpu_llc_secondary",
      let between = least time "bc" gpu_coh - most time "bc" denovo_gpu in
      spread time "bc" denovo_gpu < between
      && spread time "bc" gpu_coh < between );
    ("pr.every_S_time_below_every_H", below time "pr" s h);
    ("pr.every_S_traffic_below_every_H", below traffic "pr" s h);
    ("pr.sdg_le_smg", time "pr" "SDG" <= time "pr" "SMG");
    ("trns.every_S_time_below_every_H", below time "trns" s h);
    ("trns.sdg_lt_smg", time "trns" "SDG" < time "trns" "SMG");
    ("tqh.flat_wins_both", both "tqh" s h);
  ]

(* ----- the record: EXPERIMENTS.md ------------------------------------- *)

let contains hay needle =
  let n = String.length needle and len = String.length hay in
  let rec at i = i + n <= len && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* The figure block verbatim, and for each headline line "METRIC: VALUE" a
   table row "| LABEL: METRIC | paper | VALUE |". *)
let record_errors doc ~label ~block ~headline =
  let lines = String.split_on_char '\n' doc in
  let table_ok line =
    match String.index_opt line ':' with
    | None -> false
    | Some i ->
      let metric = String.sub line 0 i in
      let value = String.sub line (i + 2) (String.length line - i - 2) in
      List.exists
        (fun l ->
          String.starts_with
            ~prefix:(Printf.sprintf "| %s: %s |" label metric)
            l
          && String.ends_with ~suffix:(Printf.sprintf "| %s |" value) l)
        lines
  in
  (if contains doc block then []
   else [ Printf.sprintf "EXPERIMENTS.md lacks the %s block" label ])
  @ List.filter_map
      (fun line ->
        if table_ok line then None
        else
          Some
            (Printf.sprintf "EXPERIMENTS.md Headlines lacks %s %s" label line))
      (String.split_on_char '\n' headline)

let () =
  let doc = In_channel.with_open_bin Sys.argv.(1) In_channel.input_all in
  let results =
    List.map
      (fun (title, label, benches) ->
        let rows =
          Report.simulate_rows ~params ~configs:Config.all
            (List.map
               (fun (name, build) -> (name, build ?scale:(Some 1.0) geometry))
               benches)
        in
        let block =
          Format.asprintf "@[<v>%a@]" (Format.pp_print_list Report.pp_row) rows
        in
        let headline =
          Format.asprintf "%a" Report.pp_headline (Report.headline rows)
        in
        Printf.printf "%s\n%s\n%s\n\n" title block headline;
        let block = block ^ "\n" ^ headline in
        (rows, record_errors doc ~label ~block ~headline))
      figures
  in
  let rows = List.concat_map fst results in
  let errors = List.concat_map snd results in
  let failed =
    List.filter_map
      (fun (name, holds) ->
        Printf.printf "%s %s\n" (if holds then "holds" else "FAILS") name;
        if holds then None else Some ("shape predicate failed: " ^ name))
      (shapes rows)
  in
  match failed @ errors with
  | [] -> ()
  | problems ->
    List.iter prerr_endline problems;
    exit 1
