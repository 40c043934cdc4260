type cell = { config : string; result : Run.result }
type row = { workload : string; cells : cell list }

let cycles (r : Run.result) = r.Run.cycles
let flits (r : Run.result) = r.Run.total_flits

let find_cell row name =
  List.find (fun c -> c.config = name) row.cells

let normalized row ~metric =
  let base = float_of_int (metric (find_cell row "HMG").result) in
  List.map
    (fun c -> (c.config, float_of_int (metric c.result) /. base))
    row.cells

(* The minimal-metric cell among the configs [among] selects. *)
let best row ~among ~metric =
  match List.filter (fun c -> among c.config) row.cells with
  | [] -> invalid_arg "Report.best: no matching configuration"
  | c :: rest ->
    List.fold_left
      (fun acc c -> if metric c.result < metric acc.result then c else acc)
      c rest

type headline = {
  time_avg : float;
  time_max : float;
  traffic_avg : float;
  traffic_max : float;
}

let headline rows =
  let reductions =
    List.map
      (fun row ->
        let is_h name = String.length name > 0 && name.[0] = 'H' in
        let is_s name = String.length name > 0 && name.[0] = 'S' in
        let hbest = best row ~among:is_h ~metric:cycles in
        let sbest = best row ~among:is_s ~metric:cycles in
        let time_red =
          1.0
          -. (float_of_int (cycles sbest.result)
             /. float_of_int (cycles hbest.result))
        in
        let traffic_red =
          1.0
          -. (float_of_int (flits sbest.result)
             /. float_of_int (flits hbest.result))
        in
        (time_red, traffic_red))
      rows
  in
  let n = float_of_int (List.length reductions) in
  let times = List.map fst reductions and traffics = List.map snd reductions in
  {
    time_avg = List.fold_left ( +. ) 0.0 times /. n;
    time_max = List.fold_left max neg_infinity times;
    traffic_avg = List.fold_left ( +. ) 0.0 traffics /. n;
    traffic_max = List.fold_left max neg_infinity traffics;
  }

let simulate_jobs ?jobs js =
  let results = Sweep.simulate_all ?jobs js in
  List.iter Run.assert_clean results;
  List.map2 (fun (j : Sweep.job) r -> (j.Sweep.label, r)) js results

let simulate_rows ?jobs ~params ~configs workloads =
  let results =
    simulate_jobs ?jobs
      (List.concat_map
         (fun (label, workload) ->
           List.map
             (fun config -> { Sweep.label; params; config; workload })
             configs)
         workloads)
    |> List.map snd |> Array.of_list
  in
  let ncfg = List.length configs in
  List.mapi
    (fun i (workload, _) ->
      let cells =
        List.mapi
          (fun j (config : Config.t) ->
            { config = config.Config.name; result = results.((i * ncfg) + j) })
          configs
      in
      { workload; cells })
    workloads

let pp_row fmt row =
  let line name label metric =
    Printf.sprintf "%-12s %-7s %s" name label
      (String.concat " "
         (List.map
            (fun (c, v) -> Printf.sprintf "%s=%.2f" c v)
            (normalized row ~metric)))
  in
  Format.fprintf fmt "@[<v>%s@,%s@]"
    (line row.workload "time" cycles)
    (line "" "traffic" flits)

let pp_headline fmt h =
  let pct avg mx =
    Printf.sprintf "avg %.0f%% (max %.0f%%)" (100.0 *. avg) (100.0 *. mx)
  in
  Format.fprintf fmt
    "@[<v>Sbest vs Hbest, execution time: %s@,\
     Sbest vs Hbest, network traffic: %s@]"
    (pct h.time_avg h.time_max)
    (pct h.traffic_avg h.traffic_max)

(* Stats are compared as sorted (name, value) assoc lists, so interning
   order does not matter. *)
let diff_result (a : Run.result) (b : Run.result) =
  if a.Run.cycles <> b.Run.cycles then
    Some (Printf.sprintf "cycles %d <> %d" a.Run.cycles b.Run.cycles)
  else if a.Run.total_flits <> b.Run.total_flits then
    Some
      (Printf.sprintf "total_flits %d <> %d" a.Run.total_flits b.Run.total_flits)
  else if a.Run.traffic <> b.Run.traffic then Some "traffic breakdown differs"
  else if a.Run.messages <> b.Run.messages then
    Some (Printf.sprintf "messages %d <> %d" a.Run.messages b.Run.messages)
  else if a.Run.events <> b.Run.events then
    Some (Printf.sprintf "events %d <> %d" a.Run.events b.Run.events)
  else if a.Run.checks <> b.Run.checks then
    Some (Printf.sprintf "checks %d <> %d" a.Run.checks b.Run.checks)
  else if a.Run.failures <> b.Run.failures then Some "check failures differ"
  else
    let sa = Spandex_util.Stats.to_assoc a.Run.stats in
    let sb = Spandex_util.Stats.to_assoc b.Run.stats in
    if sa = sb then None
    else
      let tbl = Hashtbl.create 64 in
      List.iter (fun (k, v) -> Hashtbl.replace tbl k v) sb;
      let bad =
        List.find_opt
          (fun (k, v) -> Hashtbl.find_opt tbl k <> Some v)
          sa
      in
      Some
        (match bad with
        | Some (k, v) ->
          Printf.sprintf "stat %s: %d <> %s" k v
            (match Hashtbl.find_opt tbl k with
            | Some w -> string_of_int w
            | None -> "absent")
        | None -> "stats counter sets differ")

let traffic_share (r : Run.result) =
  let total = float_of_int (max 1 r.Run.total_flits) in
  List.map
    (fun (cat, n) -> (cat, float_of_int n /. total))
    r.Run.traffic

(* ----- per-class latency ---------------------------------------------------- *)

let pp_latency fmt (r : Run.result) =
  match r.Run.latency with
  | [] -> Format.fprintf fmt "no latency data (run with tracing enabled)"
  | rows ->
    Format.fprintf fmt "@[<v>%-10s %9s %7s %7s %7s %7s %9s" "class" "count"
      "p50" "p90" "p99" "max" "mean";
    List.iter
      (fun (name, (s : Spandex_util.Hist.summary)) ->
        Format.fprintf fmt "@,%-10s %9d %7d %7d %7d %7d %9.1f" name
          s.Spandex_util.Hist.count s.Spandex_util.Hist.p50
          s.Spandex_util.Hist.p90 s.Spandex_util.Hist.p99
          s.Spandex_util.Hist.max s.Spandex_util.Hist.mean)
      rows;
    Format.fprintf fmt "@]"

(* ----- fault-injection summary ---------------------------------------------- *)

type fault_summary = {
  injected : int;
  dropped : int;
  duplicated : int;
  delayed : int;
  reordered : int;
  resends : int;
  recovered : int;
  replayed : int;
}

let suffix_sum stats ~suffix =
  List.fold_left
    (fun acc (name, v) ->
      let ln = String.length name and ls = String.length suffix in
      if ln >= ls && String.sub name (ln - ls) ls = suffix then acc + v else acc)
    0
    (Spandex_util.Stats.to_assoc stats)

let fault_summary (r : Run.result) =
  let s = r.Run.stats in
  let net key = Spandex_util.Stats.get_prefixed s ~prefix:"net" key in
  {
    injected = net "fault.injected";
    dropped = net "fault.drop";
    duplicated = net "fault.dup";
    delayed = net "fault.delay";
    reordered = net "fault.reorder";
    resends = suffix_sum s ~suffix:".retry.resend";
    recovered = suffix_sum s ~suffix:".retry.recovered";
    replayed = suffix_sum s ~suffix:".replayed";
  }

let pp_fault_summary fmt s =
  Format.fprintf fmt
    "faults injected %d (drop %d, dup %d, delay %d, reorder %d) | resends %d \
     | txns recovered %d | home replays %d"
    s.injected s.dropped s.duplicated s.delayed s.reordered s.resends
    s.recovered s.replayed
