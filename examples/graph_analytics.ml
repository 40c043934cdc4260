(* Graph analytics across coherence configurations.

     dune exec examples/graph_analytics.exe

   Runs the BC (betweenness-centrality-style push) and PR (PageRank-style
   pull) workloads on every Table V configuration and prints the comparison
   the paper's Figure 3 makes: DeNovo GPU caches exploit the temporal
   locality of BC's atomic updates, while PR mostly rewards the flat LLC. *)

module Config = Spandex_system.Config
module Params = Spandex_system.Params
module Report = Spandex_system.Report
module Registry = Spandex_workloads.Registry

let () =
  let params = Params.bench in
  let geom = Registry.geometry_of_params params in
  let rows =
    Report.simulate_rows ~params ~configs:Config.all
      (List.map
         (fun name ->
           (name, (Registry.find name).Registry.build ~scale:0.5 geom))
         [ "bc"; "pr" ])
  in
  print_endline "normalized to HMG:";
  List.iter (Format.printf "%a@." Report.pp_row) rows;
  Format.printf "%a@." Report.pp_headline (Report.headline rows)
