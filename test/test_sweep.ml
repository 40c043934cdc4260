(* Determinism of the parallel sweep runner (Sweep.map / simulate_all):
   a --jobs 4 sweep must be bit-identical to --jobs 1 in everything a run
   reports — cycles, flits, traffic breakdown, messages, events, checks and
   the full merged stats — including under an armed fault-injection plan
   with a fixed seed.  This is the guarantee the bench harness and CI
   enforce end-to-end. *)

module Config = Spandex_system.Config
module Params = Spandex_system.Params
module Run = Spandex_system.Run
module Sweep = Spandex_system.Sweep
module Report = Spandex_system.Report
module Registry = Spandex_workloads.Registry

let test = Helpers.test

let matrix ~params names =
  let geom = Registry.geometry_of_params params in
  List.concat_map
    (fun n ->
      let wl = (Registry.find n).Registry.build ~scale:0.25 geom in
      List.map
        (fun config -> { Sweep.label = n; params; config; workload = wl })
        Config.all)
    names

let check_identical cells seq par =
  List.iteri
    (fun i ((j : Sweep.job), (s, p)) ->
      match Report.diff_result s p with
      | None -> ()
      | Some d ->
        Alcotest.failf "job %d (%s %s) diverged: %s" i j.Sweep.label
          j.Sweep.config.Config.name d)
    (List.combine cells (List.combine seq par))

let sweep_matches_sequential () =
  let params = Params.bench in
  let cells = matrix ~params [ "rsct"; "tqh" ] in
  let seq = Sweep.simulate_all ~jobs:1 cells in
  let par = Sweep.simulate_all ~jobs:4 cells in
  List.iter Run.assert_clean par;
  check_identical cells seq par

let sweep_matches_sequential_under_faults () =
  let fault =
    Spandex_net.Fault.uniform ~drop:0.02 ~dup:0.01 ~delay:0.03 ~reorder:0.03
      ~seed:7 ()
  in
  let params = { Params.bench with Params.fault = Some fault } in
  let cells = matrix ~params [ "tqh" ] in
  let seq = Sweep.simulate_all ~jobs:1 cells in
  let par = Sweep.simulate_all ~jobs:4 cells in
  check_identical cells seq par

let non_stress_names =
  List.filter_map
    (fun e ->
      if e.Registry.kind = `Stress then None else Some e.Registry.name)
    Registry.entries

let sweep_matches_sequential_all_cells () =
  (* The full 60-cell bench matrix (every non-stress workload x every
     baseline config), run sequentially and on four domains: no state
     shared between domains (such as each engine's event free-list) may
     let one cell bleed into another's results. *)
  let cells = matrix ~params:Params.bench non_stress_names in
  Alcotest.(check int) "matrix size" 60 (List.length cells);
  let seq = Sweep.simulate_all ~jobs:1 cells in
  let par = Sweep.simulate_all ~jobs:4 cells in
  List.iter Run.assert_clean par;
  check_identical cells seq par

let sweep_repeated_run_is_stable () =
  (* Two parallel runs of the same jobs agree with each other, not just
     with the sequential reference: no hidden cross-run state survives. *)
  let params = Params.bench in
  let cells = matrix ~params [ "rsct" ] in
  let a = Sweep.simulate_all ~jobs:3 cells in
  let b = Sweep.simulate_all ~jobs:3 cells in
  check_identical cells a b

let map_preserves_order () =
  let xs = List.init 200 Fun.id in
  Alcotest.(check (list int))
    "submission order" (List.map (fun x -> x * 7) xs)
    (Sweep.map ~jobs:4 (fun x -> x * 7) xs)

let map_jobs_one_is_sequential () =
  let xs = [ 3; 1; 4; 1; 5 ] in
  Alcotest.(check (list int))
    "jobs=1" (List.map succ xs)
    (Sweep.map ~jobs:1 succ xs)

exception Boom of int

let map_reraises_first_failure () =
  match
    Sweep.map ~jobs:4
      (fun x -> if x mod 3 = 0 then raise (Boom x) else x)
      (List.init 20 (fun i -> i + 1))
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom x ->
    Alcotest.(check int) "first failure in submission order" 3 x

let tests =
  [
    test "map_preserves_order" map_preserves_order;
    test "map_jobs_one_is_sequential" map_jobs_one_is_sequential;
    test "map_reraises_first_failure" map_reraises_first_failure;
    test "sweep_matches_sequential" sweep_matches_sequential;
    test "sweep_matches_sequential_under_faults"
      sweep_matches_sequential_under_faults;
    test "sweep_repeated_run_is_stable" sweep_repeated_run_is_stable;
    test "sweep_matches_sequential_all_cells" sweep_matches_sequential_all_cells;
  ]
