(* The simulator benchmark.  It drives the library's public API from
   outside: the workload generators make the inputs, [Run.build] is timed
   as set-up and [sys_run] as the run, on every configuration of
   [Config.extended].  One process runs one workload in one domain, one
   simulation at a time, with the modelled caches cold in every cell.

   perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
   perf.exe --smoke BENCHMARK.json

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
   ledger; README.md defines every metric.  Run from the repository root:
   results are also written under bench/perf/out/. *)

module Engine = Spandex_sim.Engine
module Msg = Spandex_proto.Msg
module Network = Spandex_net.Network
module Stats = Spandex_util.Stats
module Config = Spandex_system.Config
module Params = Spandex_system.Params
module Report = Spandex_system.Report
module Run = Spandex_system.Run
module Workload = Spandex_system.Workload
module Registry = Spandex_workloads.Registry
module Stress = Spandex_workloads.Stress

let params = Params.bench
let geometry = Registry.geometry_of_params params
let configs = Array.of_list Config.extended
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let minor_words () = int_of_float (Gc.minor_words ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* ----- workloads ----------------------------------------------------------- *)

type workload = {
  name : string;
  programs : (string * (unit -> Workload.t)) list;
      (** generated once per pass, then run on every configuration. *)
}

let registry ~scale name =
  (name, fun () -> (Registry.find name).Registry.build ~scale geometry)

(* The only seeded input: the paper generators are fixed, so the held-out
   seed check rides on the randomized DRF stress program. *)
let stress ~scale ~seed =
  let spec = Stress.default_spec in
  let phases = if scale < 1.0 then 2 else spec.Stress.phases in
  ("stress", fun () -> Stress.generate { spec with Stress.seed; phases } geometry)

(* Traffic shapes from the paper's evaluation, chosen so that each layer
   has a workload that exercises it and one that bypasses it (README.md). *)
let workloads ~scale ~seed =
  [
    (* strided, no L1 reuse: network, LLC/directory banks, GPU L2, DRAM *)
    { name = "stream-miss"; programs = [ registry ~scale "indirection" ] };
    (* L1-resident shared reads: core issue and L1 hit path; the control *)
    { name = "read-reuse"; programs = [ registry ~scale "reuses" ] };
    (* dense stores to an owned tile: store buffer, ReqO/ReqWT *)
    { name = "write-own"; programs = [ registry ~scale "reuseo" ] };
    (* Figure 3 apps: atomics, fine-grain sync, barriers, most set-up *)
    {
      name = "collab-sync";
      programs =
        List.map (registry ~scale) [ "bc"; "pr"; "hsti"; "trns"; "rsct"; "tqh" ]
        @ [ stress ~scale ~seed ];
    };
  ]

(* ----- order statistics ---------------------------------------------------- *)

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

type dist = { med : float; q1 : float; q3 : float; lo : float; hi : float; n : int }

let dist xs =
  {
    med = median xs;
    q1 = quantile xs 0.25;
    q3 = quantile xs 0.75;
    lo = quantile xs 0.0;
    hi = quantile xs 1.0;
    n = Array.length xs;
  }

type metric = { name : string; value : float; unit : string; dist : dist option }

let metric ?dist name unit value = { name; value; unit; dist }

(* ----- host-time ledger ---------------------------------------------------- *)

(* The traced pass wraps every endpoint's message handler.  The wrapper adds
   the handler's monotonic-clock duration and minor-heap words to counters
   indexed by endpoint class, and for one chosen cell also appends a raw
   span.  Handlers never nest (the engine dispatches one event at a time),
   so a span's duration is its self time.  The wrapper allocates nothing:
   all of its state lives in preallocated int arrays. *)
module Ledger = struct
  let classes =
    [|
      "mesi_l1"; "denovo_l1"; "gpu_l1"; "gpu_denovo_l1"; "llc"; "mesi_dir";
      "gpu_l2"; "mesi_client";
    |]

  let nclasses = Array.length classes

  (* Device display names are "<class>.<instance>"; the MESI directory's
     banks are named "dir.bN". *)
  let class_of_device name =
    let base =
      match String.index_opt name '.' with
      | Some i -> String.sub name 0 i
      | None -> name
    in
    let base = if base = "dir" then "mesi_dir" else base in
    match Array.find_index (String.equal base) classes with
    | Some k -> k
    | None -> failwith ("ledger: unknown endpoint class " ^ name)

  let span_ints = 5 (* class, txn, start_ns, end_ns, words *)

  type t = {
    calls : int array;
    ns : int array;
    words : int array;
    mutable spans : int array;
    mutable len : int;
    mutable recording : bool;
  }

  let create () =
    {
      calls = Array.make nclasses 0;
      ns = Array.make nclasses 0;
      words = Array.make nclasses 0;
      spans = [||];
      len = 0;
      recording = false;
    }

  let reset l =
    Array.fill l.calls 0 nclasses 0;
    Array.fill l.ns 0 nclasses 0;
    Array.fill l.words 0 nclasses 0

  let total_ns l = Array.fold_left ( + ) 0 l.ns

  let wrap l k handler (msg : Msg.t) =
    let txn = msg.Msg.txn in
    let w0 = minor_words () in
    let t0 = now_ns () in
    handler msg;
    let t1 = now_ns () in
    let dw = minor_words () - w0 in
    l.calls.(k) <- l.calls.(k) + 1;
    l.ns.(k) <- l.ns.(k) + (t1 - t0);
    l.words.(k) <- l.words.(k) + dw;
    if l.recording && (l.len + 1) * span_ints <= Array.length l.spans then begin
      let b = l.len * span_ints in
      l.spans.(b) <- k;
      l.spans.(b + 1) <- txn;
      l.spans.(b + 2) <- t0;
      l.spans.(b + 3) <- t1;
      l.spans.(b + 4) <- dw;
      l.len <- l.len + 1
    end

  (* [record] is the span capacity when this cell's raw spans are kept. *)
  let install l (sys : Run.system) ~record =
    (match record with
    | Some capacity ->
      l.spans <- Array.make (capacity * span_ints) 0;
      l.len <- 0;
      l.recording <- true
    | None -> l.recording <- false);
    Array.iteri
      (fun id name ->
        let k = class_of_device name in
        try Network.wrap_handler sys.Run.sys_net ~id (wrap l k)
        with Failure _ -> (* id not registered in this configuration *) ())
      sys.Run.sys_device_names

  let write_csv l ~path ~origin =
    Out_channel.with_open_text path (fun oc ->
        output_string oc "class,txn,start_ns,end_ns,words\n";
        for i = 0 to l.len - 1 do
          let s j = l.spans.((i * span_ints) + j) in
          Printf.fprintf oc "%s,%d,%d,%d,%d\n" classes.(s 0) (s 1)
            (s 2 - origin) (s 3 - origin) (s 4)
        done)
end

(* ----- host-speed calibration ---------------------------------------------- *)

(* The shared host's speed drifts by up to 40% over tens of seconds
   (README.md, "Host-time noise").  A fixed kernel shaped like the
   simulator's event loop, a binary heap of event keys plus scattered writes
   to a 4 MiB table, is timed before every cell, and a run's host times are
   scaled by [reference_s / median kernel time]: they read as seconds on a
   host where the kernel takes [reference_s].  The kernel's memory lives
   outside the OCaml heap and it allocates a few words per call, so neither
   the library nor its heap can change its time. *)
module Calibration = struct
  open Bigarray

  let reference_s = 0.008
  let heap = Array1.create int c_layout 4096
  let table = Array1.init int c_layout (1 lsl 19) (fun _ -> 0)
  let mask = (1 lsl 19) - 1

  let kernel () =
    let len = ref 0 in
    let swap i j =
      let t = heap.{i} in
      heap.{i} <- heap.{j};
      heap.{j} <- t
    in
    let push x =
      let i = ref !len in
      incr len;
      heap.{!i} <- x;
      while !i > 0 && heap.{(!i - 1) / 2} > heap.{!i} do
        swap !i ((!i - 1) / 2);
        i := (!i - 1) / 2
      done
    in
    let pop () =
      let top = heap.{0} in
      decr len;
      heap.{0} <- heap.{!len};
      let i = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        let m = ref !i in
        if l < !len && heap.{l} < heap.{!m} then m := l;
        if l + 1 < !len && heap.{l + 1} < heap.{!m} then m := l + 1;
        if !m = !i then sifting := false
        else begin
          swap !i !m;
          i := !m
        end
      done;
      top
    in
    (* keys: time in the high bits, event id in the low 20 *)
    for i = 0 to 4000 do
      push (((i * 7) mod 1000) lsl 20 lor i)
    done;
    let acc = ref 0 in
    for _ = 1 to 50_000 do
      let e = pop () in
      let k = e land 0xfffff in
      let slot = (k * 2654435761) land mask in
      table.{slot} <- table.{slot} + e;
      acc := !acc + table.{(slot + 64) land mask};
      push (e + ((1 + ((k * 31) land 255)) lsl 20))
    done;
    !acc

  let measure () =
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (kernel ()));
    seconds_since t0
end

(* ----- passes -------------------------------------------------------------- *)

type pass = {
  cal_s : float array;  (** calibration kernel time just before each cell. *)
  gen_s : float array;  (** per program. *)
  build_s : float array;  (** per cell (program x config). *)
  run_s : float array;
  words : float array;  (** minor words allocated by [sys_run]. *)
  span_s : float array;  (** handler time inside [sys_run]; traced passes. *)
  cls_calls : int array;  (** per ledger class; traced passes. *)
  cls_ns : int array;
  cls_words : int array;
}

type state = {
  wl : workload;
  ops : int array;  (** [Workload.total_ops] per program. *)
  reference : Run.result option array;
      (** first result per cell; every later run must match it exactly. *)
  ledger : Ledger.t;
  mutable spans_origin : int;  (** run start of the cell whose spans are kept. *)
  mutable attempted : int;
  mutable failed : int;
}

let ncells st = List.length st.wl.programs * Array.length configs
let program_of_cell c = c / Array.length configs
let config_of_cell c = configs.(c mod Array.length configs)

let fail st c what =
  st.failed <- st.failed + 1;
  Printf.eprintf "FAIL %s %s/%s: %s\n%!" st.wl.name
    (fst (List.nth st.wl.programs (program_of_cell c)))
    (config_of_cell c).Config.name what

let check st c ~traced = function
  | Error e -> fail st c e
  | Ok (r : Run.result) -> (
    match Run.assert_clean r with
    | exception Failure e -> fail st c e
    | () -> (
      match st.reference.(c) with
      | None -> st.reference.(c) <- Some r
      | Some r0 -> (
        match Report.diff_result r0 r with
        | None -> ()
        | Some d ->
          fail st c
            (Printf.sprintf "%s result differs from the first run: %s"
               (if traced then "traced" else "repeated")
               d))))

let config_index (config : Config.t) =
  Option.get
    (Array.find_index (fun (c : Config.t) -> c.Config.name = config.Config.name) configs)

(* The SDD cell of the first program keeps its raw spans. *)
let spans_cell = config_index Config.sdd

let run_pass ?(traced = false) st =
  let n = ncells st in
  let np = List.length st.wl.programs in
  let nk = Ledger.nclasses in
  let p =
    {
      cal_s = Array.make n 0.0;
      gen_s = Array.make np 0.0;
      build_s = Array.make n 0.0;
      run_s = Array.make n 0.0;
      words = Array.make n 0.0;
      span_s = Array.make n 0.0;
      cls_calls = Array.make nk 0;
      cls_ns = Array.make nk 0;
      cls_words = Array.make nk 0;
    }
  in
  if traced then Ledger.reset st.ledger;
  List.iteri
    (fun i (_, gen) ->
      let t0 = now_ns () in
      let w = gen () in
      p.gen_s.(i) <- seconds_since t0;
      st.ops.(i) <- Workload.total_ops w;
      Array.iteri
        (fun j config ->
          let c = (i * Array.length configs) + j in
          p.cal_s.(c) <- Calibration.measure ();
          let t0 = now_ns () in
          let sys = Run.build ~params ~config w in
          p.build_s.(c) <- seconds_since t0;
          let record =
            match st.reference.(c) with
            | Some r when traced && c = spans_cell && st.ledger.Ledger.len = 0 ->
              Some r.Run.messages
            | _ -> None
          in
          if traced then Ledger.install st.ledger sys ~record;
          let spans0 = Ledger.total_ns st.ledger in
          st.attempted <- st.attempted + 1;
          let w0 = Gc.minor_words () in
          let t0 = now_ns () in
          let outcome =
            match sys.Run.sys_run () with
            | r -> Ok r
            | exception
                (( Engine.Deadlock _ | Engine.Stuck _ | Engine.Livelock _
                 | Failure _ | Invalid_argument _ ) as e) ->
              Error (Printexc.to_string e)
          in
          p.run_s.(c) <- seconds_since t0;
          p.words.(c) <- Gc.minor_words () -. w0;
          if record <> None then st.spans_origin <- t0;
          st.ledger.Ledger.recording <- false;
          if traced then
            p.span_s.(c) <-
              float_of_int (Ledger.total_ns st.ledger - spans0) *. 1e-9;
          check st c ~traced outcome)
        configs)
    st.wl.programs;
  if traced then begin
    Array.blit st.ledger.Ledger.calls 0 p.cls_calls 0 nk;
    Array.blit st.ledger.Ledger.ns 0 p.cls_ns 0 nk;
    Array.blit st.ledger.Ledger.words 0 p.cls_words 0 nk
  end;
  p

(* ----- metrics ------------------------------------------------------------- *)

let sum = Array.fold_left ( +. ) 0.0
let fsum f n = sum (Array.init n f)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The median over passes of one per-cell (or per-program) quantity. *)
let per_pass_median passes f i =
  median (Array.of_list (List.map (fun p -> (f p).(i)) passes))

let results st = Array.to_list st.reference |> List.filter_map Fun.id

let total_ops st =
  float_of_int
    (Array.fold_left ( + ) 0 st.ops * Array.length configs)

(* Factor from measured host seconds to reference-host seconds for the
   passes of one run (see [Calibration]). *)
let host_scale passes =
  Calibration.reference_s
  /. median (Array.concat (List.map (fun p -> p.cal_s) passes))

(* Each cell's time: the median over passes of its run time, normalized. *)
let cell_times st passes =
  let k = host_scale passes in
  Array.init (ncells st) (fun c ->
      k *. per_pass_median passes (fun p -> p.run_s) c)

let end_to_end st passes ~heap_words =
  let n = ncells st and np = List.length st.wl.programs in
  let ops = total_ops st in
  let k = host_scale passes in
  let per_pass f = Array.of_list (List.map f passes) in
  let setup p = k *. (sum p.gen_s +. sum p.build_s) in
  [
    metric "ops_per_s" "ops/s"
      (ops /. sum (cell_times st passes))
      ~dist:(dist (per_pass (fun p -> ops /. (k *. sum p.run_s))));
    metric "setup_s" "s"
      (k
      *. (fsum (per_pass_median passes (fun p -> p.gen_s)) np
         +. fsum (per_pass_median passes (fun p -> p.build_s)) n))
      ~dist:(dist (per_pass setup));
    metric "minor_words_per_op" "words/op"
      (fsum (per_pass_median passes (fun p -> p.words)) n /. ops)
      ~dist:(dist (per_pass (fun p -> sum p.words /. ops)));
    metric "peak_heap_mb" "MiB"
      (float_of_int (heap_words * (Sys.word_size / 8)) /. 1048576.0);
  ]

let stat_sum rs ~prefix ~suffix =
  List.fold_left
    (fun acc (r : Run.result) ->
      List.fold_left
        (fun acc (k, v) ->
          if String.starts_with ~prefix k && String.ends_with ~suffix k then
            acc + v
          else acc)
        acc (Stats.to_assoc r.Run.stats))
    0 rs
  |> float_of_int

let per_layer st ~untraced ~traced =
  let n = ncells st and np = List.length st.wl.programs in
  let rs = results st in
  let total f = float_of_int (List.fold_left (fun a r -> a + f r) 0 rs) in
  let ops = total_ops st in
  let events = total (fun r -> r.Run.events) in
  let messages = total (fun r -> r.Run.messages) in
  let first = List.hd traced in
  let k = host_scale (traced @ untraced) in
  let untraced_wall =
    k *. fsum (per_pass_median untraced (fun p -> p.run_s)) n
  in
  let traced_wall = k *. fsum (per_pass_median traced (fun p -> p.run_s)) n in
  let rest =
    k
    *. median
         (Array.of_list
            (List.map (fun p -> sum p.run_s -. sum p.span_s) traced))
  in
  let classes =
    List.concat
      (List.mapi
         (fun i cls ->
           let calls = float_of_int first.cls_calls.(i) in
           let self_s =
             median
               (Array.of_list
                  (List.map (fun p -> float_of_int p.cls_ns.(i) *. 1e-9 *. k) traced))
           in
           [
             metric (cls ^ ".calls") "count" calls;
             metric (cls ^ ".self_s") "s" self_s;
             metric (cls ^ ".ns_per_call") "ns" (ratio (self_s *. 1e9) calls);
             metric (cls ^ ".words_per_call") "words"
               (ratio (float_of_int first.cls_words.(i)) calls);
           ])
         (Array.to_list Ledger.classes))
  in
  let hit_ratio prefix ~hit ~miss =
    let h = stat_sum rs ~prefix ~suffix:hit in
    ratio h (h +. stat_sum rs ~prefix ~suffix:miss)
  in
  let blocked_per_req prefix =
    ratio
      (stat_sum rs ~prefix:(prefix ^ "blocked") ~suffix:"")
      (stat_sum rs ~prefix:(prefix ^ "req.") ~suffix:"")
  in
  let dram_peak =
    List.fold_left
      (fun acc r -> Array.fold_left max acc r.Run.dram_channel_peaks)
      0 rs
  in
  classes
  @ [
      metric "net.messages" "count" messages;
      metric "net.messages_per_op" "msgs/op" (messages /. ops);
      metric "net.flits_per_message" "flits/msg"
        (total (fun r -> r.Run.total_flits) /. messages);
      metric "net.flit_hops" "flit-hops" (total (fun r -> r.Run.total_flits));
      metric "sim.cycles" "cycles" (total (fun r -> r.Run.cycles));
      metric "sim.events" "count" events;
      metric "sim.events_per_op" "events/op" (events /. ops);
      metric "sim.events_per_s" "events/s" (events /. untraced_wall);
      metric "sim.minor_words_per_event" "words/event"
        (fsum (per_pass_median untraced (fun p -> p.words)) n /. events);
      metric "sim.rest_s" "s" rest;
      metric "sim.rest_share" "fraction" (rest /. traced_wall);
      metric "workloads.gen_s" "s"
        (k *. fsum (per_pass_median untraced (fun p -> p.gen_s)) np);
      metric "system.build_s" "s"
        (k *. fsum (per_pass_median untraced (fun p -> p.build_s)) n);
      metric "mesi_l1.load_hit_ratio" "fraction"
        (hit_ratio "mesi_l1." ~hit:".load_hit" ~miss:".load_miss");
      metric "denovo_l1.load_hit_ratio" "fraction"
        (hit_ratio "denovo_l1." ~hit:".load_hit" ~miss:".load_miss");
      metric "gpu_l1.load_hit_ratio" "fraction"
        (hit_ratio "gpu_l1." ~hit:".load_hit" ~miss:".load_miss");
      metric "llc.hit_ratio" "fraction"
        (hit_ratio "spandex_llc." ~hit:".hit" ~miss:".miss");
      metric "llc.blocked_per_req" "blocks/req" (blocked_per_req "spandex_llc.");
      metric "gpu_l2.hit_ratio" "fraction"
        (hit_ratio "gpu_l2." ~hit:".hit" ~miss:".miss");
      metric "mesi_dir.hit_ratio" "fraction"
        (hit_ratio "mesi_dir." ~hit:".hit" ~miss:".miss");
      metric "mesi_dir.blocked_per_req" "blocks/req"
        (blocked_per_req "mesi_dir.");
      metric "dram.peak_queue" "count" (float_of_int dram_peak);
      metric "trace_overhead" "fraction" ((traced_wall /. untraced_wall) -. 1.0);
    ]

(* Digest of the simulated results, so model drift between two commits is
   visible even though no gated metric covers it. *)
let sim_digest st =
  Array.to_list st.reference
  |> List.mapi (fun c r ->
         match r with
         | None -> "failed"
         | Some (r : Run.result) ->
           Printf.sprintf "%s/%s:%d:%d:%d:%d:%d"
             (fst (List.nth st.wl.programs (program_of_cell c)))
             (config_of_cell c).Config.name r.Run.cycles r.Run.total_flits
             r.Run.messages r.Run.events r.Run.checks)
  |> String.concat ";" |> Digest.string |> Digest.to_hex

(* Sbest-vs-Hbest reductions over the paper's six configurations, per
   program (the stress program has no paper counterpart).  Reported, not
   gated. *)
let accuracy st =
  let nc = Array.length configs in
  let rows =
    List.concat
      (List.mapi
         (fun i (name, _) ->
           let cells =
             List.filter_map
               (fun (config : Config.t) ->
                 Option.map
                   (fun result -> { Report.config = config.Config.name; result })
                   st.reference.((i * nc) + config_index config))
               Config.all
           in
           if name = "stress" || List.length cells <> List.length Config.all
           then []
           else [ { Report.workload = name; cells } ])
         st.wl.programs)
  in
  if rows = [] then []
  else
    let h = Report.headline rows in
    let pct x = 100.0 *. x in
    [
      metric "accuracy.time_reduction_avg" "%" (pct h.Report.time_avg);
      metric "accuracy.traffic_reduction_avg" "%" (pct h.Report.traffic_avg);
    ]
    @
    if st.wl.name = "collab-sync" then
      (* paper §I: 16% execution time, 27% network traffic *)
      [
        metric "accuracy.time_error_pp" "pp" (pct h.Report.time_avg -. 16.0);
        metric "accuracy.traffic_error_pp" "pp" (pct h.Report.traffic_avg -. 27.0);
      ]
    else []

(* ----- output -------------------------------------------------------------- *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Obj of (string * json) list
  | Arr of json list

let rec json_to_string = function
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Int i -> string_of_int i
  | Str s -> Printf.sprintf "%S" s
  | Bool b -> string_of_bool b
  | Obj kvs ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_to_string v)) kvs)
    ^ "}"
  | Arr vs -> "[" ^ String.concat ", " (List.map json_to_string vs) ^ "]"

let metric_json m =
  Obj
    ([ ("value", Num m.value); ("unit", Str m.unit) ]
    @
    match m.dist with
    | None -> []
    | Some d ->
      [
        ("median", Num d.med); ("q1", Num d.q1); ("q3", Num d.q3);
        ("min", Num d.lo); ("max", Num d.hi); ("n", Int d.n);
      ])

let print_metric m =
  Printf.printf "%s %.9g %s" m.name m.value m.unit;
  Option.iter
    (fun d ->
      Printf.printf "  n=%d min=%.6g q1=%.6g median=%.6g q3=%.6g max=%.6g" d.n
        d.lo d.q1 d.med d.q3 d.hi)
    m.dist;
  print_newline ()

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let s = try String.trim (input_line ic) with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    s

let provenance ~scale ~seed ~passes =
  [
    ("nproc", Str (nproc ()));
    ("recommended_domains", Int (Domain.recommended_domain_count ()));
    ("ocaml", Str Sys.ocaml_version);
    ("msg_checks", Bool (Msg.checks_enabled ()));
    ("engine", Str "wheel");
    ("scale", Num scale);
    ("seed", Int seed);
    ("passes", Int passes);
  ]

let out_path file =
  let dir = Filename.concat "bench" (Filename.concat "perf" "out") in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir file

let write_out ~file fields =
  Out_channel.with_open_text (out_path file) (fun oc ->
      output_string oc (json_to_string (Obj fields));
      output_char oc '\n')

(* ----- modes --------------------------------------------------------------- *)

let new_state wl =
  let n = List.length wl.programs * Array.length configs in
  {
    wl;
    ops = Array.make (List.length wl.programs) 0;
    reference = Array.make n None;
    ledger = Ledger.create ();
    spans_origin = 0;
    attempted = 0;
    failed = 0;
  }

(* Run passes until [seconds] have elapsed, and at least [min] of them. *)
let repeat ~seconds ~min f =
  let t0 = now_ns () in
  let rec go acc k =
    if k >= min && seconds_since t0 >= seconds then List.rev acc
    else go (f () :: acc) (k + 1)
  in
  go [] 0

(* Raw host-time samples, in measured seconds, for offline analysis. *)
let samples st passes =
  let nums f = Arr (List.map (fun p -> Num (f p)) passes) in
  Obj
    [
      ( "gen_s",
        Obj
          (List.mapi
             (fun i (name, _) -> (name, nums (fun p -> p.gen_s.(i))))
             st.wl.programs) );
      ( "cells",
        Arr
          (List.init (ncells st) (fun c ->
               Obj
                 [
                   ("program", Str (fst (List.nth st.wl.programs (program_of_cell c))));
                   ("config", Str (config_of_cell c).Config.name);
                   ("calibration_s", nums (fun p -> p.cal_s.(c)));
                   ("build_s", nums (fun p -> p.build_s.(c)));
                   ("run_s", nums (fun p -> p.run_s.(c)));
                 ])) );
    ]

(* Prints the human-readable report and returns the fields of the run's
   JSON file. *)
let print_report st ~trace ~scale ~seed ~passes metrics =
  let rs = results st in
  let total f = List.fold_left (fun a r -> a + f r) 0 rs in
  let failed_frac = ratio (float_of_int st.failed) (float_of_int st.attempted) in
  let acc = if trace then [] else accuracy st in
  (* Cell-time percentiles: reported, not gated (README.md). *)
  let cell_s =
    if trace then []
    else
      let d = dist (cell_times st passes) in
      [ metric "cell_s" "s" d.med ~dist:d ]
  in
  let prov = provenance ~scale ~seed ~passes:(List.length passes) in
  Printf.printf "# workload %s  %s\n" st.wl.name
    (String.concat "  "
       (List.map (fun (k, v) -> k ^ " " ^ json_to_string v) prov));
  List.iter print_metric metrics;
  Printf.printf "# cells_attempted %d  cells_failed %d  failed_frac %g\n"
    st.attempted st.failed failed_frac;
  Printf.printf "# sim_digest %s  sim_cycles %d  flit_hops %d\n" (sim_digest st)
    (total (fun r -> r.Run.cycles))
    (total (fun r -> r.Run.total_flits));
  List.iter (fun m -> print_string "# "; print_metric m) cell_s;
  if acc <> [] then begin
    print_endline "# accuracy (Sbest vs Hbest, reported, not gated):";
    List.iter print_metric acc
  end;
  let fields =
    [
      ("workload", Str st.wl.name);
      ("mode", Str (if trace then "per_layer" else "end_to_end"));
      ("provenance", Obj prov);
      ("cells_attempted", Int st.attempted);
      ("cells_failed", Int st.failed);
      ("failed_frac", Num failed_frac);
      ("sim_digest", Str (sim_digest st));
      ("sim_cycles", Int (total (fun r -> r.Run.cycles)));
      ("flit_hops", Int (total (fun r -> r.Run.total_flits)));
      ("metrics", Obj (List.map (fun m -> (m.name, metric_json m)) metrics));
      ("accuracy", Obj (List.map (fun m -> (m.name, Num m.value)) acc));
      ("cell_s", Obj (List.map (fun m -> (m.name, metric_json m)) cell_s));
      ("samples", samples st passes);
    ]
  in
  fields

let last_line st metrics =
  print_endline
    (json_to_string
       (Obj
          [
            ("correct", Bool (st.failed = 0));
            ("attempted", Int st.attempted);
            ("failed", Int st.failed);
            ( "metrics",
              Obj
                (List.map
                   (fun m -> (m.name, Obj [ ("value", Num m.value); ("unit", Str m.unit) ]))
                   metrics) );
          ]))

let main ~name ~seed ~seconds ~trace =
  let wl =
    match List.find_opt (fun (w : workload) -> w.name = name) (workloads ~scale:1.0 ~seed) with
    | Some w -> w
    | None ->
      Printf.eprintf "perf: unknown workload %S (one of: %s)\n" name
        (String.concat ", "
           (List.map (fun (w : workload) -> w.name) (workloads ~scale:1.0 ~seed)));
      exit 2
  in
  let st = new_state wl in
  (* Untimed warm-up: fills the host caches and the heap, and records the
     reference result of every cell. *)
  ignore (run_pass st);
  let metrics, passes =
    if trace then begin
      (* Traced and untraced passes alternate, so host drift hits both. *)
      let pairs =
        repeat ~seconds ~min:1 (fun () ->
            let t = run_pass ~traced:true st in
            (t, run_pass st))
      in
      Ledger.write_csv st.ledger
        ~path:(out_path (wl.name ^ ".spans.csv"))
        ~origin:st.spans_origin;
      let traced = List.map fst pairs and untraced = List.map snd pairs in
      (per_layer st ~untraced ~traced, traced @ untraced)
    end
    else
      let t0 = now_ns () in
      let first = List.init 5 (fun _ -> run_pass st) in
      (* Read at a fixed pass count: the heap's growth must not depend on
         how many passes the host's speed allowed. *)
      let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
      let passes =
        first
        @ repeat ~seconds:(seconds -. seconds_since t0) ~min:0 (fun () ->
              run_pass st)
      in
      (end_to_end st passes ~heap_words, passes)
  in
  let fields = print_report st ~trace ~scale:1.0 ~seed ~passes metrics in
  write_out
    ~file:(wl.name ^ if trace then ".layers.json" else ".json")
    fields;
  last_line st metrics;
  if st.failed > 0 then exit 1

(* ----- smoke --------------------------------------------------------------- *)

(* Metric (name, unit) pairs and workload names declared in BENCHMARK.json. *)
let spec_of_file file =
  let s = In_channel.with_open_bin file In_channel.input_all in
  let all re =
    let re = Str.regexp re in
    let rec go pos acc =
      match Str.search_forward re s pos with
      | exception Not_found -> List.rev acc
      | _ ->
        let m = (Str.matched_group 1 s, Str.matched_group 2 s) in
        go (Str.match_end ()) (m :: acc)
    in
    go 0 []
  in
  let metrics = all {|"name": *"\([^"]*\)", *"unit": *"\([^"]*\)"|} in
  let workloads = List.map fst (all {|"name": *"\([^"]*\)", *"why": *"\([^"]*\)"|}) in
  if metrics = [] || workloads = [] then failwith (file ^ ": no metrics or workloads");
  (metrics, workloads)

let smoke file =
  let spec_metrics, spec_workloads = spec_of_file file in
  let scale = 0.05 and seed = 1 in
  let wls = workloads ~scale ~seed in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if List.sort compare spec_workloads
     <> List.sort compare (List.map (fun (w : workload) -> w.name) wls)
  then problem "workloads in %s differ from the benchmark's" file;
  List.iter
    (fun wl ->
      let st = new_state wl in
      let untraced = run_pass st in
      let traced = run_pass ~traced:true st in
      let metrics =
        end_to_end st [ untraced ]
          ~heap_words:(Gc.quick_stat ()).Gc.top_heap_words
        @ per_layer st ~untraced:[ untraced ] ~traced:[ traced ]
      in
      Printf.printf "smoke: %s: %d cells, %d failed, %d metrics\n" wl.name
        st.attempted st.failed (List.length metrics);
      if st.failed > 0 then problem "%s: %d failed cells" wl.name st.failed;
      List.iter
        (fun (name, unit) ->
          match List.find_opt (fun m -> m.name = name) metrics with
          | None -> problem "%s: metric %s not reported" wl.name name
          | Some m when m.unit <> unit ->
            problem "%s: metric %s reported in %s, declared in %s" wl.name name
              m.unit unit
          | Some _ -> ())
        spec_metrics)
    wls;
  match !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
    List.iter (Printf.eprintf "smoke: %s\n") (List.rev ps);
    exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and smoke_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  workload to run");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) run");
      ("--smoke", Arg.Set_string smoke_file, "FILE  quick check against BENCHMARK.json");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if !smoke_file <> "" then smoke !smoke_file
  else if !workload = "" || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perf: --workload NAME is required and --trace is 0 or 1";
    exit 2
  end
  else main ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
