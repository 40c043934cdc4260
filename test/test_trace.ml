(* Observability layer: histogram quantiles against a naive oracle, the
   trace ring's wraparound semantics, disabled-sink no-ops, exporter
   well-formedness, and the load-bearing invariant that tracing never
   changes simulated results. *)

module Hist = Spandex_util.Hist
module Trace = Spandex_sim.Trace
module Msg = Spandex_proto.Msg
module Config = Spandex_system.Config
module Params = Spandex_system.Params
module Run = Spandex_system.Run
module Report = Spandex_system.Report
module Registry = Spandex_workloads.Registry

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ----- Hist ----------------------------------------------------------------- *)

let hist_basics () =
  let h = Hist.create () in
  check_bool "empty" true (Hist.is_empty h);
  check_int "empty quantile" 0 (Hist.quantile h 0.99);
  List.iter (Hist.record h) [ 3; 1; 4; 1; 5 ];
  check_int "count" 5 (Hist.count h);
  check_int "p0 is the smallest" 1 (Hist.quantile h 0.0);
  check_int "max" 5 (Hist.max_value h);
  (* Values below 2^sub_bits land in exact unit buckets, so small-value
     quantiles are exact order statistics. *)
  check_int "p50 exact" 3 (Hist.quantile h 0.5);
  check_int "p100 is max" 5 (Hist.quantile h 1.0);
  Alcotest.(check (float 1e-9)) "mean" 2.8 (Hist.mean h);
  let s = Hist.summary h in
  check_int "summary count" 5 s.Hist.count;
  check_int "summary max" 5 s.Hist.max;
  Hist.record h (-7);
  check_int "negative clamps to 0" 0 (Hist.quantile h 0.0)

(* The oracle: exact order statistic at rank ceil(q*n) from a sorted list.
   The histogram must return an upper bound from the same bucket, clamped
   to the true maximum. *)
let quantile_oracle values q =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  a.(min (n - 1) (rank - 1))

let value_gen =
  (* Spread across magnitudes so both exact and log-bucketed ranges are
     exercised: v = m lsl s for small m and shifts up to 30. *)
  QCheck2.Gen.(map (fun (m, s) -> m lsl s) (pair (int_bound 0xFFF) (int_bound 30)))

let hist_quantile_props =
  [
    QCheck2.Test.make ~name:"hist_quantile_vs_oracle"
      QCheck2.Gen.(list_size (int_range 1 300) value_gen)
      (fun values ->
        let h = Hist.create () in
        List.iter (Hist.record h) values;
        List.for_all
          (fun q ->
            let est = Hist.quantile h q in
            let exact = quantile_oracle values q in
            Hist.index est = Hist.index exact
            && est >= exact
            && est <= Hist.max_value h)
          [ 0.5; 0.9; 0.99; 1.0 ])
      ~print:(fun l -> String.concat ";" (List.map string_of_int l));
    QCheck2.Test.make ~name:"hist_bucket_bounds_inverse" value_gen
      (fun v ->
        let i = Hist.index v in
        let lo, hi = Hist.bucket_bounds i in
        lo <= v && v <= hi)
      ~print:string_of_int;
  ]

(* ----- trace sink ------------------------------------------------------------ *)

let trace_disabled () =
  let tr = Trace.disabled in
  check_bool "off" false (Trace.on tr);
  check_int "name is 0" 0 (Trace.name tr "anything");
  Trace.span_begin tr ~time:1 ~dev:0 ~txn:7 ~cls:0 ~line:0;
  Trace.span_end tr ~time:5 ~dev:0 ~txn:7;
  Trace.instant tr ~time:1 ~dev:0 ~name:0 ~txn:(-1) ~arg:0;
  Trace.counter tr ~time:1 ~dev:0 ~name:0 ~value:3;
  Trace.msg_send tr ~time:1 ~src:0 ~dst:1 ~txn:7 ~kind:0 ~line:0;
  check_int "nothing recorded" 0 (Trace.total tr);
  check_int "no open spans" 0 (Trace.open_spans tr);
  Alcotest.(check (list (pair string reject)))
    "no latency" [] (Trace.latency_summaries tr);
  let n = ref 0 in
  Trace.iter tr ~f:(fun _ -> incr n);
  check_int "iter empty" 0 !n

let trace_ring_wrap () =
  let tr = Trace.create { Trace.capacity = 8; sample_every = 64 } in
  let name = Trace.name tr "tick" in
  for t = 0 to 19 do
    Trace.instant tr ~time:t ~dev:0 ~name ~txn:(-1) ~arg:t
  done;
  check_int "total" 20 (Trace.total tr);
  check_int "recorded = capacity" 8 (Trace.recorded tr);
  check_int "dropped" 12 (Trace.dropped tr);
  let times = ref [] in
  Trace.iter tr ~f:(fun ev ->
      match ev with
      | Trace.Instant { time; name = n; _ } ->
        Alcotest.(check string) "name survives wrap" "tick" n;
        times := time :: !times
      | _ -> Alcotest.fail "unexpected event kind");
  Alcotest.(check (list int))
    "oldest-to-newest, oldest dropped"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.rev !times)

let trace_capacity_rounds_up () =
  let tr = Trace.create { Trace.capacity = 5; sample_every = 64 } in
  let name = Trace.name tr "x" in
  for t = 0 to 7 do
    Trace.instant tr ~time:t ~dev:0 ~name ~txn:(-1) ~arg:0
  done;
  check_int "capacity rounded to 8" 8 (Trace.recorded tr);
  check_int "nothing dropped yet" 0 (Trace.dropped tr)

let trace_spans () =
  let tr = Trace.create { Trace.capacity = 16; sample_every = 64 } in
  Trace.span_begin tr ~time:10 ~dev:2 ~txn:42 ~cls:0 ~line:3;
  check_int "one open span" 1 (Trace.open_spans tr);
  Trace.span_end tr ~time:150 ~dev:2 ~txn:42;
  check_int "closed" 0 (Trace.open_spans tr);
  (* An end without a begin is ignored, not miscounted. *)
  Trace.span_end tr ~time:160 ~dev:2 ~txn:999;
  check_int "unmatched end ignored" 0 (Trace.open_spans tr);
  (match Trace.latency_summaries tr with
  | [ (name, s) ] ->
    Alcotest.(check string) "class name" (Trace.cls_name 0) name;
    check_int "count" 1 s.Hist.count;
    check_int "latency" 140 s.Hist.p50
  | l -> Alcotest.failf "expected one class, got %d" (List.length l));
  check_int "class histogram count" 1 (Hist.count (Trace.latency tr ~cls:0))

let trace_span_survives_wrap () =
  (* Latency accounting lives beside the ring, so a span whose begin event
     was evicted by wraparound still records its latency on end. *)
  let tr = Trace.create { Trace.capacity = 8; sample_every = 64 } in
  let name = Trace.name tr "noise" in
  Trace.span_begin tr ~time:0 ~dev:0 ~txn:1 ~cls:2 ~line:0;
  for t = 1 to 40 do
    Trace.instant tr ~time:t ~dev:0 ~name ~txn:(-1) ~arg:0
  done;
  Trace.span_end tr ~time:500 ~dev:0 ~txn:1;
  match Trace.latency_summaries tr with
  | [ (_, s) ] ->
    check_int "count" 1 s.Hist.count;
    check_int "latency despite eviction" 500 s.Hist.max
  | l -> Alcotest.failf "expected one class, got %d" (List.length l)

(* ----- exporters ------------------------------------------------------------- *)

(* The shared minimal JSON syntax checker (Helpers.json_valid). *)
let json_valid = Helpers.json_valid

let populated_sink () =
  let tr = Trace.create { Trace.capacity = 64; sample_every = 64 } in
  let quoted = Trace.name tr "needs \"escaping\"\n" in
  Trace.span_begin tr ~time:1 ~dev:0 ~txn:5 ~cls:1 ~line:9;
  Trace.msg_send tr ~time:2 ~src:0 ~dst:3 ~txn:5 ~kind:1 ~line:9;
  Trace.instant tr ~time:3 ~dev:3 ~name:quoted ~txn:5 ~arg:(-1);
  Trace.counter tr ~time:4 ~dev:0 ~name:quoted ~value:7;
  Trace.span_end tr ~time:20 ~dev:0 ~txn:5;
  tr

let export_chrome_valid () =
  let tr = populated_sink () in
  let buf = Buffer.create 256 in
  Trace.export_chrome tr ~device_name:(Printf.sprintf "dev\"%d\"") buf;
  let s = Buffer.contents buf in
  check_bool "chrome JSON parses" true (json_valid (String.trim s));
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  check_bool "has traceEvents" true (contains s "traceEvents");
  check_bool "escaped device name" true (contains s "dev\\\"0\\\"")

let export_jsonl_valid () =
  let tr = populated_sink () in
  let buf = Buffer.create 256 in
  Trace.export_jsonl tr ~device_name:(Printf.sprintf "dev%d") buf;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  (* header + 5 events *)
  check_int "line count" 6 (List.length lines);
  List.iter
    (fun l -> check_bool ("line parses: " ^ l) true (json_valid l))
    lines

(* ----- bit identity ---------------------------------------------------------- *)

let traced_params (p : Params.t) =
  { p with Params.trace = Some Trace.default_spec }

let run_pair ~params ~config wl =
  let plain = Run.simulate ~params ~config wl in
  let traced = Run.simulate ~params:(traced_params params) ~config wl in
  (plain, traced)

let trace_bit_identity () =
  (* The acceptance invariant: enabling tracing changes no simulated
     outcome — cycles, flits, messages, event counts, stats — across
     workloads and configurations. *)
  let geom = Registry.geometry_of_params Params.bench in
  List.iter
    (fun name ->
      let wl = (Registry.find name).Registry.build ~scale:0.25 geom in
      List.iter
        (fun config ->
          let plain, traced = run_pair ~params:Params.bench ~config wl in
          (match Report.diff_result plain traced with
          | None -> ()
          | Some d ->
            Alcotest.failf "%s %s: traced run diverged: %s" name
              config.Config.name d);
          check_bool
            (Printf.sprintf "%s %s: traced latency present" name
               config.Config.name)
            true
            (traced.Run.latency <> []);
          check_bool "untraced latency empty" true (plain.Run.latency = []))
        Config.all)
    [ "rsct"; "tqh" ]

let trace_bit_identity_faulted () =
  (* Same invariant under fault injection, where the trace layer also
     records drop/dup/delay instants and retry resends. *)
  let fault =
    Spandex_net.Fault.uniform ~drop:0.02 ~dup:0.01 ~delay:0.05 ~reorder:0.02
      ~seed:11 ()
  in
  let params = { Params.bench with Params.fault = Some fault } in
  let geom = Registry.geometry_of_params params in
  let wl = (Registry.find "bc").Registry.build ~scale:0.25 geom in
  List.iter
    (fun config ->
      let plain, traced = run_pair ~params ~config wl in
      match Report.diff_result plain traced with
      | None -> ()
      | Some d ->
        Alcotest.failf "bc %s faulted: traced run diverged: %s"
          config.Config.name d)
    [ Config.smd; Config.by_name "HMG" ]

let trace_end_to_end_export () =
  (* A full traced simulation exports valid Chrome JSON and JSONL. *)
  let geom = Registry.geometry_of_params Params.bench in
  let wl = (Registry.find "rsct").Registry.build ~scale:0.25 geom in
  let r =
    Run.simulate ~params:(traced_params Params.bench) ~config:Config.smd wl
  in
  Run.assert_clean r;
  let device_name id =
    if id >= 0 && id < Array.length r.Run.track_names then
      r.Run.track_names.(id)
    else Printf.sprintf "dev%d" id
  in
  let buf = Buffer.create 65536 in
  Trace.export_chrome r.Run.trace ~device_name buf;
  check_bool "chrome export parses" true
    (json_valid (String.trim (Buffer.contents buf)));
  Buffer.clear buf;
  Trace.export_jsonl r.Run.trace ~device_name buf;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  check_int "jsonl lines = header + recorded"
    (Trace.recorded r.Run.trace + 1)
    (List.length lines);
  List.iter (fun l -> check_bool "jsonl line parses" true (json_valid l)) lines

(* Counter tracks are named from the device table: every counter event's
   name is its device's name plus what it counts, so each home bank has
   its own [pending] track, and the network's [net.in_flight] is on the
   network's own track. *)
let trace_counters_named_from_device_table () =
  let geom = Registry.geometry_of_params Params.bench in
  let wl = (Registry.find "bc").Registry.build ~scale:0.25 geom in
  let r =
    Run.simulate ~params:(traced_params Params.bench) ~config:Config.sdd wl
  in
  Run.assert_clean r;
  let names = r.Run.track_names in
  let has_prefix p s =
    String.length s > String.length p && String.sub s 0 (String.length p) = p
  in
  let pending = ref [] in
  Trace.iter r.Run.trace ~f:(function
    | Trace.Counter { dev; name; _ } ->
      if not (has_prefix (names.(dev) ^ ".") name) then
        Alcotest.failf "counter %s on device %s" name names.(dev);
      if Filename.extension name = ".pending" && not (List.mem name !pending)
      then pending := name :: !pending
    | _ -> ());
  let banks =
    List.filter (has_prefix "llc.b") (Array.to_list names)
    |> List.map (fun bank -> bank ^ ".pending")
  in
  check_int "one LLC bank per configured bank" Params.bench.Params.llc_banks
    (List.length banks);
  Alcotest.(check (list string))
    "one pending counter per LLC bank" (List.sort compare banks)
    (List.sort compare !pending)

let tests =
  [
    test "hist_basics" hist_basics;
    test "trace_disabled" trace_disabled;
    test "trace_ring_wrap" trace_ring_wrap;
    test "trace_capacity_rounds_up" trace_capacity_rounds_up;
    test "trace_spans" trace_spans;
    test "trace_span_survives_wrap" trace_span_survives_wrap;
    test "export_chrome_valid" export_chrome_valid;
    test "export_jsonl_valid" export_jsonl_valid;
    test "trace_bit_identity" trace_bit_identity;
    test "trace_bit_identity_faulted" trace_bit_identity_faulted;
    test "trace_end_to_end_export" trace_end_to_end_export;
    test "trace_counters_named_from_device_table"
      trace_counters_named_from_device_table;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) hist_quantile_props
