(* Time-series metrics: series sampling, OpenMetrics/CSV/Chrome exporter
   well-formedness, and the load-bearing invariant that enabling metrics
   never changes simulated results on the full 60-cell bench matrix. *)

module Metrics = Spandex_obs.Metrics
module Trace = Spandex_sim.Trace
module Config = Spandex_system.Config
module Params = Spandex_system.Params
module Run = Spandex_system.Run
module Sweep = Spandex_system.Sweep
module Report = Spandex_system.Report
module Registry = Spandex_workloads.Registry

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* The CSV export's rows, header dropped. *)
let csv_rows reg =
  let buf = Buffer.create 4096 in
  Metrics.export_csv reg buf;
  List.tl (String.split_on_char '\n' (String.trim (Buffer.contents buf)))

(* Every sample of [reg] as (metric name, value), in export order:
   series in registration order, each series' samples by cycle. *)
let csv_samples reg =
  List.map
    (fun row ->
      match String.split_on_char ',' row with
      | [ _cycle; name; _labels; _kind; value; _delta ] -> (name, value)
      | _ -> Alcotest.failf "malformed CSV row: %s" row)
    (csv_rows reg)

(* ----- registry: sampling and kinds ------------------------------------------- *)

let disabled_is_noop () =
  let reg = Metrics.disabled in
  check_bool "off" false (Metrics.on reg);
  Metrics.counter reg ~name:"x_total" (fun () -> Alcotest.fail "probed");
  Metrics.sample reg ~time:0;
  check_int "no series" 0 (Metrics.num_series reg);
  check_int "no samples" 0 (Metrics.num_samples reg)

let sampling_records_typed_series () =
  let reg = Metrics.create { Metrics.sample_every = 4 } in
  let ops = ref 0 and depth = ref 5 in
  Metrics.counter reg ~name:"t_ops_total"
    ~labels:[ ("device", "llc.b0") ]
    ~help:"ops" (fun () -> !ops);
  Metrics.gauge reg ~name:"t_depth" (fun () -> !depth);
  Metrics.ratio reg ~name:"t_hit_ratio" (fun () -> (!ops, !depth));
  Metrics.sample reg ~time:0;
  ops := 3;
  depth := 6;
  Metrics.sample reg ~time:4;
  check_int "series" 3 (Metrics.num_series reg);
  check_int "samples" 6 (Metrics.num_samples reg);
  (* cycle, name, labels, kind, value, and a counter's delta. *)
  Alcotest.(check (list string))
    "series in registration order"
    [
      "0,t_ops_total,device=llc.b0,counter,0,0";
      "4,t_ops_total,device=llc.b0,counter,3,3";
      "0,t_depth,,gauge,5,";
      "4,t_depth,,gauge,6,";
      "0,t_hit_ratio,,ratio,0,";
      "4,t_hit_ratio,,ratio,0.5,";
    ]
    (csv_rows reg)

let rejects_bad_cadence () =
  match Metrics.create { Metrics.sample_every = 0 } with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ----- exporters -------------------------------------------------------------- *)

let exporter_registry () =
  let reg = Metrics.create Metrics.default_spec in
  let ops = ref 0 in
  Metrics.counter reg ~name:"t_ops_total"
    ~labels:[ ("device", "llc.b0"); ("odd label", "a\"b") ]
    ~help:"operations" (fun () -> !ops);
  Metrics.gauge reg ~name:"t depth" (fun () -> 7) (* name needs sanitizing *);
  Metrics.ratio reg ~name:"t_ratio" (fun () -> (1, 2));
  Metrics.sample reg ~time:0;
  ops := 5;
  Metrics.sample reg ~time:64;
  ops := 6;
  Metrics.sample reg ~time:128;
  reg

let name_charset_ok name =
  let ok i c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || c = '_' || c = ':'
    || (i > 0 && c >= '0' && c <= '9')
  in
  name <> ""
  && List.for_all
       (fun i -> ok i name.[i])
       (List.init (String.length name) Fun.id)

let openmetrics_wellformed () =
  let reg = exporter_registry () in
  let buf = Buffer.create 256 in
  Metrics.export_openmetrics reg buf;
  let lines =
    String.split_on_char '\n' (String.trim (Buffer.contents buf))
  in
  check_string "terminator" "# EOF" (List.nth lines (List.length lines - 1));
  let samples =
    List.filter
      (fun l -> l <> "" && not (String.length l >= 1 && l.[0] = '#'))
      lines
  in
  check_int "one line per sample" (Metrics.num_samples reg)
    (List.length samples);
  (* Counter families drop the _total suffix in the TYPE declaration; the
     samples keep it. *)
  check_bool "counter TYPE strips _total" true
    (contains (Buffer.contents buf) "# TYPE t_ops counter");
  check_bool "counter samples keep _total" true
    (contains (Buffer.contents buf) "t_ops_total{");
  check_bool "help line" true
    (contains (Buffer.contents buf) "# HELP t_ops operations");
  check_bool "ratio exports as gauge" true
    (contains (Buffer.contents buf) "# TYPE t_ratio gauge");
  check_bool "ratio value is the quotient" true
    (contains (Buffer.contents buf) "t_ratio 0.5 0");
  (* Every sample line is 'name{labels} value cycle' with a sane metric
     name, a numeric value, and an integer cycle timestamp. *)
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | [ series; value; cycle ] ->
        let name =
          match String.index_opt series '{' with
          | Some i -> String.sub series 0 i
          | None -> series
        in
        check_bool ("metric name charset: " ^ name) true (name_charset_ok name);
        check_bool ("numeric value: " ^ value) true
          (float_of_string_opt value <> None);
        check_bool ("integer cycle: " ^ cycle) true
          (int_of_string_opt cycle <> None)
      | _ -> Alcotest.failf "malformed sample line: %s" l)
    samples;
  (* Label values are escaped, keys sanitized. *)
  check_bool "label escaping" true
    (contains (Buffer.contents buf) "odd_label=\"a\\\"b\"")

let csv_wellformed () =
  let reg = exporter_registry () in
  let buf = Buffer.create 256 in
  Metrics.export_csv reg buf;
  let lines =
    String.split_on_char '\n' (String.trim (Buffer.contents buf))
  in
  check_string "header" "cycle,metric,labels,kind,value,delta"
    (List.hd lines);
  check_int "one row per sample" (Metrics.num_samples reg)
    (List.length lines - 1);
  (* The counter's delta column is the per-interval difference. *)
  let counter_rows =
    List.filter (fun l -> contains l ",t_ops_total,") lines
  in
  let deltas =
    List.map
      (fun l ->
        match List.rev (String.split_on_char ',' l) with
        | d :: _ -> d
        | [] -> assert false)
      counter_rows
  in
  check_bool "counter deltas" true (deltas = [ "0"; "5"; "1" ]);
  (* Gauge rows leave the delta empty. *)
  List.iter
    (fun l ->
      if contains l ",gauge," || contains l ",ratio," then
        check_bool ("empty delta: " ^ l) true
          (String.length l > 0 && l.[String.length l - 1] = ','))
    (List.tl lines)

let chrome_counters_json_valid () =
  let reg = exporter_registry () in
  let events = ref [] in
  Metrics.chrome_counter_events reg ~emit:(fun s -> events := s :: !events);
  check_int "one event per sample" (Metrics.num_samples reg)
    (List.length !events);
  List.iter
    (fun e ->
      check_bool ("counter event parses: " ^ e) true (Helpers.json_valid e);
      check_bool "is a counter phase" true (contains e "\"ph\":\"C\""))
    !events

(* ----- end-to-end: a simulated run with metrics on ---------------------------- *)

let bench_cell () =
  let params = Params.bench in
  let geom = Registry.geometry_of_params params in
  ((Registry.find "bc").Registry.build ~scale:0.25 geom, Config.smd)

let simulated_run_collects_series () =
  let wl, config = bench_cell () in
  let params =
    { Params.bench with Params.metrics = Some Metrics.default_spec }
  in
  let r = Run.simulate ~params ~config wl in
  Run.assert_clean r;
  let m = r.Run.metrics in
  check_bool "registry live" true (Metrics.on m);
  check_bool "collected series" true (Metrics.num_series m > 0);
  check_bool "collected samples" true (Metrics.num_samples m > 0);
  let samples = csv_samples m in
  let names = List.map fst samples in
  List.iter
    (fun expected ->
      check_bool ("series registered: " ^ expected) true
        (List.mem expected names))
    [
      "spandex_llc_bank_lines";
      "spandex_l1_mshr_occupancy";
      "spandex_net_in_flight";
      "spandex_net_flits_total";
      "spandex_net_vc_depth";
      "spandex_dram_queue_depth";
      "spandex_engine_events_total";
    ];
  (* The engine-events counter's last sample cannot exceed the run's
     event total, and must be monotone. *)
  (match
     List.filter_map
       (fun (n, v) ->
         if n = "spandex_engine_events_total" then Some (int_of_string v)
         else None)
       samples
   with
  | [] -> Alcotest.fail "engine events series missing"
  | pts ->
    check_bool "monotone" true (List.sort compare pts = pts);
    check_bool "bounded by run events" true
      (List.nth pts (List.length pts - 1) <= r.Run.events));
  (* The whole Chrome document with metric counter tracks merged in must
     still parse. *)
  let tparams = { params with Params.trace = Some Trace.default_spec } in
  let rt = Run.simulate ~params:tparams ~config wl in
  let buf = Buffer.create (1 lsl 16) in
  Trace.export_chrome
    ~extra:(Metrics.chrome_counter_events rt.Run.metrics)
    rt.Run.trace
    ~device_name:(fun id -> rt.Run.track_names.(id))
    buf;
  check_bool "merged chrome export parses" true
    (Helpers.json_valid (String.trim (Buffer.contents buf)))

(* Trace and metrics share one probe registry but stay separate sinks: a
   trace-only run keeps no series and never arms the per-VC depth gauges
   (whose handler wrappers only a metrics run may pay for), and a
   metrics-only run records no trace. *)
let sinks_stay_separate () =
  let wl, config = bench_cell () in
  let traced =
    Run.simulate
      ~params:{ Params.bench with Params.trace = Some Trace.default_spec }
      ~config wl
  in
  check_bool "trace recorded" true (Trace.total traced.Run.trace > 0);
  check_int "trace-only run keeps no series" 0
    (Metrics.num_series traced.Run.metrics);
  check_bool "no vc depth series" false
    (List.mem_assoc "spandex_net_vc_depth" (csv_samples traced.Run.metrics));
  let metered =
    Run.simulate
      ~params:{ Params.bench with Params.metrics = Some Metrics.default_spec }
      ~config wl
  in
  check_bool "metrics-only run carries the disabled sink" true
    (metered.Run.trace == Trace.disabled)

(* ----- the identity gate: metrics-on ≡ metrics-off ---------------------------- *)

let matrix ~params names =
  let geom = Registry.geometry_of_params params in
  List.concat_map
    (fun n ->
      let wl = (Registry.find n).Registry.build ~scale:0.25 geom in
      List.map
        (fun config -> { Sweep.label = n; params; config; workload = wl })
        Config.all)
    names

let non_stress_names =
  List.filter_map
    (fun e ->
      if e.Registry.kind = `Stress then None else Some e.Registry.name)
    Registry.entries

let with_metrics (j : Sweep.job) =
  {
    j with
    Sweep.params =
      { j.Sweep.params with Params.metrics = Some Metrics.default_spec };
  }

let metrics_on_matches_off_all_cells () =
  (* The full 60-cell bench matrix, mirroring the trace_identical gate:
     every cell must report bit-identical results with the metric sampler
     armed.  The sampler runs inline in the dispatch loop and never
     enqueues events, so any divergence is a probe mutating simulation
     state. *)
  let cells = matrix ~params:Params.bench non_stress_names in
  check_int "matrix size" 60 (List.length cells);
  let off = Sweep.simulate_all ~jobs:1 cells in
  let on_ = Sweep.simulate_all ~jobs:1 (List.map with_metrics cells) in
  List.iter2
    (fun ((j : Sweep.job), o) m ->
      (match Report.diff_result o m with
      | None -> ()
      | Some d ->
        Alcotest.failf "%s %s diverged with metrics on: %s" j.Sweep.label
          j.Sweep.config.Config.name d);
      check_bool "metrics actually collected" true
        (Metrics.num_samples m.Run.metrics > 0))
    (List.combine cells off) on_

let tests =
  [
    test "disabled_is_noop" disabled_is_noop;
    test "sampling_records_typed_series" sampling_records_typed_series;
    test "rejects_bad_cadence" rejects_bad_cadence;
    test "openmetrics_wellformed" openmetrics_wellformed;
    test "csv_wellformed" csv_wellformed;
    test "chrome_counters_json_valid" chrome_counters_json_valid;
    test "simulated_run_collects_series" simulated_run_collects_series;
    test "sinks_stay_separate" sinks_stay_separate;
    test "metrics_on_matches_off_all_cells" metrics_on_matches_off_all_cells;
  ]
