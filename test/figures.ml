(* The paper contract, executable: Figures 2 and 3 and their Sbest-vs-Hbest
   headlines (9 workloads x the six Table V configurations at scale 1 on
   [Params.bench]), the observed Table II and the six ablation and
   extension studies, all through [Report.simulate_jobs] as in
   bench/main.exe.

     figures.exe EXPERIMENTS.md

   Prints each figure's rows and headline, one line per shape predicate,
   then Table II, each study's cells and one line per ablation predicate.
   `dune runtest` diffs the output against figures.expected; `dune
   promote` accepts an intended move.  Exits 1, naming what failed, when a
   predicate does not hold or when EXPERIMENTS.md does not carry a printed
   block verbatim (the Headlines table's Measured column included), so the
   record cannot drift from the code. *)

module Config = Spandex_system.Config
module Params = Spandex_system.Params
module Report = Spandex_system.Report
module Run = Spandex_system.Run
module Registry = Spandex_workloads.Registry
module Microbench = Spandex_workloads.Microbench
module Apps = Spandex_workloads.Apps
module Studies = Spandex_workloads.Studies

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

(* Each ✓ bullet under EXPERIMENTS.md's "Ablations and extensions", over
   the cells of every study, looked up by their printed labels. *)
let ablation_checks cells =
  let cell label =
    match List.filter (fun (l, _) -> l = label) cells with
    | [ (_, r) ] -> r
    | _ -> failwith ("no unique ablation cell " ^ label)
  in
  let time l = (cell l).Run.cycles and traffic l = (cell l).Run.total_flits in
  (* m(a) within pct% of m(b). *)
  let within pct m a b = 100 * abs (m a - m b) <= pct * m b in
  (* [ok a b] for every adjacent pair. *)
  let rec chain ok = function
    | a :: (b :: _ as rest) -> ok a b && chain ok rest
    | _ -> true
  in
  let penalty cross =
    let at c = float_of_int (time (Printf.sprintf "cross=%d %s" cross c)) in
    1.0 -. (at "SMG" /. at "HMG")
  in
  [
    ( "reqs.auto_within_1pct_of_option1",
      within 1 time "auto" "always (1) Shared" );
    ( "reqs.option2_traffic_ge_5x_auto",
      traffic "always (2) Valid" >= 5 * traffic "auto" );
    ( "reqs.options_2_3_slower_than_auto",
      time "auto" < time "always (2) Valid"
      && time "auto" < time "always (3) Owned" );
    ( "regions.sdd_traffic_cut_ge_60pct",
      10 * traffic "SDD regions" <= 4 * traffic "SDD full-flush" );
    ( "regions.smg_unchanged",
      time "SMG regions" = time "SMG full-flush"
      && traffic "SMG regions" = traffic "SMG full-flush" );
    ( "hierarchy.penalty_grows_with_cross",
      chain ( < ) (List.map penalty [ 8; 16; 32; 64 ]) );
    ( "banks.more_banks_never_slower",
      chain ( >= )
        (List.map (fun b -> time (Printf.sprintf "banks=%d" b)) [ 1; 2; 4; 8 ])
    );
    ( "coalescing.window16_cuts_traffic_ge_30pct",
      10 * traffic "window=16" <= 7 * traffic "window=1" );
    ("adaptive.sda_equals_sdd_on_bc", time "bc SDA" = time "bc SDD");
    ( "adaptive.sda_within_3pct_of_sdd_on_reuseo",
      within 3 time "reuseo SDA" "reuseo SDD" );
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

(* Print [cells] under [title] and [note]; an error unless EXPERIMENTS.md
   carries the printed cell lines verbatim. *)
let print_block doc ~title ?note pp cells =
  let block = Format.asprintf "%a" pp cells in
  print_endline title;
  Option.iter print_endline note;
  Printf.printf "%s\n\n" block;
  if contains doc block then []
  else [ Printf.sprintf "EXPERIMENTS.md lacks the block of %s" title ]

(* "holds NAME" or "FAILS NAME" per predicate; the failures' names. *)
let verdicts ~kind checks =
  List.filter_map
    (fun (name, holds) ->
      Printf.printf "%s %s\n" (if holds then "holds" else "FAILS") name;
      if holds then None
      else Some (Printf.sprintf "%s predicate failed: %s" kind name))
    checks

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
  let failed = verdicts ~kind:"shape" (shapes rows) in
  print_newline ();
  let table2 =
    print_block doc ~title:"Table II: Requests generated per device protocol"
      Studies.pp_table2
      (Report.simulate_jobs (Studies.table2 ()))
  in
  let studies =
    List.map
      (fun (study : Studies.t) ->
        let cells = Report.simulate_jobs study.Studies.jobs in
        ( cells,
          print_block doc ~title:study.Studies.title ~note:study.Studies.note
            Studies.pp_cells cells ))
      (Studies.ablations ())
  in
  let ablations =
    verdicts ~kind:"ablation"
      (ablation_checks (List.concat_map fst studies))
  in
  match failed @ errors @ table2 @ List.concat_map snd studies @ ablations with
  | [] -> ()
  | problems ->
    List.iter prerr_endline problems;
    exit 1
