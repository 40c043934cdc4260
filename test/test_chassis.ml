(* Bit-identity of the chassis-backed L1s against the pre-refactor seed.

   The golden file (chassis_golden.expected) was generated from the tree
   *before* the four protocol modules were rebuilt on lib/l1's Chassis and
   Policy layers; every digest folds in everything a run reports — cycles,
   flits, per-category traffic, messages, events, checks, failures and the
   full merged stats — and, for traced cells, the exported JSONL trace
   stream and the per-request-class latency histograms.  Any drift in event
   ordering, stats naming, trace emission or latency bucketing shows up as
   a digest mismatch on the exact (workload, config) cell that diverged.

   Modes: [untraced] (every non-stress workload), [traced], [fault] (a
   drop/dup/delay/reorder plan), [fault-far] (delays of 600-4096 cycles,
   beyond the timing wheel's horizon, so deliveries ride its overflow
   tier), [observed] (trace plus metrics on different cadences; the
   digest also folds the OpenMetrics, CSV and merged Chrome exports) and
   [metrics] (metrics alone, same exports) and [saa] (every non-stress
   workload on the adaptive SAA configuration).  The [untraced] and
   [fault-far] lines were recorded while a binary-heap reference
   scheduler still existed and agreed with the wheel on every one.

   Regenerate (only when a change is *meant* to alter simulation results):

     SPANDEX_CHASSIS_GOLDEN=$PWD/test/chassis_golden.expected \
       dune exec test/test_main.exe -- test chassis *)

module Msg = Spandex_proto.Msg
module Stats = Spandex_util.Stats
module Hist = Spandex_util.Hist
module Trace = Spandex_sim.Trace
module Metrics = Spandex_obs.Metrics
module Config = Spandex_system.Config
module Params = Spandex_system.Params
module Run = Spandex_system.Run
module Sweep = Spandex_system.Sweep
module Registry = Spandex_workloads.Registry

let test = Helpers.test

let non_stress_names =
  List.filter_map
    (fun e -> if e.Registry.kind = `Stress then None else Some e.Registry.name)
    Registry.entries

(* The seed configurations the goldens cover: the paper's six plus SDA,
   whose adaptive-write behaviour predates the policy layer and must be
   reproduced by it exactly.  SAA is new in the policy layer and has no
   pre-refactor reference; the [saa] lines pin its results as recorded
   before the legacy bench harness, which gated them, was retired. *)
let golden_configs = Config.all @ [ Config.sda ]

let matrix ?(configs = golden_configs) ~params names =
  let geom = Registry.geometry_of_params params in
  List.concat_map
    (fun n ->
      let wl = (Registry.find n).Registry.build ~scale:0.25 geom in
      List.map
        (fun config -> { Sweep.label = n; params; config; workload = wl })
        configs)
    names

let add_result b (r : Run.result) =
  Buffer.add_string b
    (Printf.sprintf "cycles=%d flits=%d msgs=%d events=%d checks=%d fails=%d\n"
       r.Run.cycles r.Run.total_flits r.Run.messages r.Run.events r.Run.checks
       (List.length r.Run.failures));
  List.iter
    (fun (c, n) ->
      Buffer.add_string b (Printf.sprintf "traffic.%s=%d\n" (Msg.category_name c) n))
    r.Run.traffic;
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "%s=%d\n" name v))
    (Stats.to_assoc r.Run.stats)

let add_latency b (r : Run.result) =
  List.iter
    (fun (cls, (s : Hist.summary)) ->
      Buffer.add_string b
        (Printf.sprintf "latency.%s count=%d p50=%d p90=%d p99=%d max=%d\n" cls
           s.Hist.count s.Hist.p50 s.Hist.p90 s.Hist.p99 s.Hist.max))
    r.Run.latency

let add_trace b (r : Run.result) =
  Trace.export_jsonl r.Run.trace
    ~device_name:(fun id -> r.Run.track_names.(id))
    b

(* Every observability export of a run: OpenMetrics, CSV, and the Chrome
   document with the metric counter tracks merged in. *)
let add_exports b (r : Run.result) =
  Metrics.export_openmetrics r.Run.metrics b;
  Metrics.export_csv r.Run.metrics b;
  Trace.export_chrome
    ~extra:(Metrics.chrome_counter_events r.Run.metrics)
    r.Run.trace
    ~device_name:(fun id -> r.Run.track_names.(id))
    b

(* What a digest folds in beyond the run's results. *)
type fold = Results | Traced | Observed | Metered

let digest ~fold (r : Run.result) =
  let b = Buffer.create 8192 in
  add_result b r;
  (match fold with
  | Results -> ()
  | Traced ->
    add_latency b r;
    add_trace b r
  | Observed ->
    add_latency b r;
    add_trace b r;
    add_exports b r
  | Metered -> add_exports b r);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* One golden line per cell: "<mode> <workload> <config> <md5>". *)
let lines_for ~mode ~fold cells =
  let results = Sweep.simulate_all ~jobs:1 cells in
  List.map2
    (fun (j : Sweep.job) r ->
      Printf.sprintf "%s %s %s %s" mode j.Sweep.label j.Sweep.config.Config.name
        (digest ~fold r))
    cells results

let traced_params =
  { Params.bench with Params.trace = Some Trace.default_spec }

let fault_params =
  let fault =
    Spandex_net.Fault.uniform ~drop:0.02 ~dup:0.01 ~delay:0.03 ~reorder:0.03
      ~seed:7 ()
  in
  { Params.bench with Params.fault = Some fault }

(* Delay/reorder-only plan whose delays reach far beyond the wheel's
   512-cycle horizon, so faulted deliveries ride its overflow tier. *)
let fault_far_params =
  let fault =
    Spandex_net.Fault.uniform ~delay:0.2 ~reorder:0.1 ~delay_min:600
      ~delay_max:4096 ~seed:11 ()
  in
  { Params.bench with Params.fault = Some fault }

(* Trace and metrics together, on cadences (64 vs 48) that make the two
   sinks sample at different cycles. *)
let observed_params =
  { traced_params with Params.metrics = Some { Metrics.sample_every = 48 } }

let metered_params =
  { Params.bench with Params.metrics = Some Metrics.default_spec }

let all_lines () =
  lines_for ~mode:"untraced" ~fold:Results
    (matrix ~params:Params.bench non_stress_names)
  @ lines_for ~mode:"traced" ~fold:Traced
      (matrix ~params:traced_params [ "rsct"; "tqh"; "bc" ])
  @ lines_for ~mode:"fault" ~fold:Results (matrix ~params:fault_params [ "tqh" ])
  @ lines_for ~mode:"fault-far" ~fold:Results
      (matrix ~params:fault_far_params [ "rsct"; "tqh" ])
  @ lines_for ~mode:"observed" ~fold:Observed
      (matrix ~params:observed_params [ "rsct"; "tqh"; "bc" ])
  @ lines_for ~mode:"metrics" ~fold:Metered
      (matrix ~params:metered_params [ "tqh" ])
  @ lines_for ~mode:"saa" ~fold:Results
      (matrix ~configs:[ Config.saa ] ~params:Params.bench non_stress_names)

(* `dune runtest` runs the binary in the test directory; `dune exec` from
   the project root does not. *)
let golden_file =
  if Sys.file_exists "chassis_golden.expected" then "chassis_golden.expected"
  else "test/chassis_golden.expected"

let read_golden () =
  let ic = open_in golden_file in
  let rec go acc =
    match input_line ic with
    | line -> go (if line = "" then acc else line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let bit_identical_to_seed () =
  let lines = all_lines () in
  match Sys.getenv_opt "SPANDEX_CHASSIS_GOLDEN" with
  | Some path ->
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    Printf.printf "wrote %d golden digests to %s\n" (List.length lines) path
  | None ->
    let expected = read_golden () in
    Alcotest.(check int)
      "golden cell count" (List.length expected) (List.length lines);
    List.iter2
      (fun want got ->
        if want <> got then
          Alcotest.failf "digest drift:\n  expected %s\n  got      %s" want got)
      expected lines

let tests = [ test "bit_identical_to_seed" bit_identical_to_seed ]
