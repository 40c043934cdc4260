(* Fault injection and recovery: the seeded fault plan, the end-to-end
   retry table, home-side reply caches, and the livelock watchdog.

   The end-to-end tests run real workloads over a network that drops,
   duplicates, delays and reorders messages, and require both that every
   Check op still sees the right value and that faults were actually
   injected (a plan that never fires proves nothing). *)

open Helpers
module Ops = Spandex_device.Ops
module Msg = Spandex_proto.Msg
module Addr = Spandex_proto.Addr
module Engine = Spandex_sim.Engine
module Fault = Spandex_net.Fault
module Retry = Spandex_util.Retry
module Stats = Spandex_util.Stats
module Registry = Spandex_workloads.Registry
module Report = Spandex_system.Report

let store i v = Ops.Store (w i, v)
let check i v = Ops.Check (w i, v)

(* Producer-consumer across the CPU/GPU boundary: stores to 64 distinct
   lines, a barrier, then checked loads, then the reverse direction —
   every message class (ReqO/ReqWT upstream, ReqV/ReqS downstream,
   write-backs, probes on the return leg) is exercised. *)
let producer_consumer () =
  let line i = i * Spandex_proto.Addr.words_per_line in
  let producer =
    Array.concat
      [
        Array.init 64 (fun i -> store (line i) (4000 + i));
        [| Ops.Barrier 0 |];
        [| Ops.Barrier 1 |];
        Array.init 64 (fun i -> check (line (100 + i)) (6000 + i));
      ]
  in
  let consumer =
    Array.concat
      [
        [| Ops.Barrier 0 |];
        Array.init 64 (fun i -> check (line i) (4000 + i));
        Array.init 64 (fun i -> store (line (100 + i)) (6000 + i));
        [| Ops.Barrier 1 |];
      ]
  in
  workload ~name:"producer_consumer" ~barriers:[| 2; 2 |] ~cpu:[| producer |]
    ~gpu:[| [| consumer |] |] ()

let graph () =
  let geom = Registry.geometry_of_params quick_params in
  (Registry.find "pr").Registry.build ~scale:0.25 geom

let faulty_params ?(watchdog = 200_000) spec =
  { quick_params with Params.fault = Some spec; watchdog_cycles = watchdog }

(* ----- fault plan unit tests ------------------------------------------------ *)

let msg ?(kind = Msg.Req Msg.ReqV) ?(fwd = false) () =
  Msg.make ~txn:1 ~kind ~line:0 ~mask:Addr.full_mask ~src:0 ~dst:9 ~fwd ()

let faultable_classification () =
  let ok k = Alcotest.(check bool) "faultable" true (Fault.faultable k)
  and no k = Alcotest.(check bool) "lossless" false (Fault.faultable k) in
  ok (msg ());
  ok (msg ~kind:(Msg.Req Msg.ReqOdata) ());
  ok (msg ~kind:(Msg.Rsp Msg.RspV) ());
  ok (msg ~kind:(Msg.Rsp Msg.RspWB) ());
  ok (msg ~kind:(Msg.Rsp Msg.Nack) ());
  (* Forwarded requests, probes, acks, data-carrying responses, and RspO
     ownership grants ride the lossless channel: no end-to-end timer can
     recover their loss (re-soliciting an RspO would mean re-sending the
     forwarded revocation, which can race into a later registration
     epoch at the old owner). *)
  no (msg ~kind:(Msg.Rsp Msg.RspO) ());
  no (msg ~fwd:true ());
  no (msg ~kind:(Msg.Req Msg.ReqS) ~fwd:true ());
  no (msg ~kind:(Msg.Probe Msg.Inv) ());
  no (msg ~kind:(Msg.Probe Msg.RvkO) ());
  no (msg ~kind:(Msg.Rsp Msg.Ack) ());
  no (msg ~kind:(Msg.Rsp Msg.RspRvkO) ());
  no (msg ~kind:(Msg.Rsp Msg.RspS) ());
  no (msg ~kind:(Msg.Rsp Msg.RspOdata) ());
  no (msg ~kind:(Msg.Rsp Msg.RspWTdata) ())

let verdicts spec n =
  let f = Fault.create spec ~stats:(Stats.create ()) in
  List.init n (fun i -> Fault.route f ~now:(i * 10) ~latency:8 (msg ()))

let plan_deterministic () =
  let spec = Fault.uniform ~drop:0.3 ~dup:0.3 ~delay:0.3 ~reorder:0.3 ~seed:42 () in
  Alcotest.(check bool)
    "same seed, same verdicts" true
    (verdicts spec 200 = verdicts spec 200);
  Alcotest.(check bool)
    "different seed differs" true
    (verdicts spec 200 <> verdicts { spec with Fault.seed = 43 } 200)

let lossless_never_dropped () =
  let spec = Fault.uniform ~drop:1.0 ~seed:5 () in
  let stats = Stats.create () in
  let f = Fault.create spec ~stats in
  for i = 0 to 49 do
    match
      Fault.route f ~now:(i * 10) ~latency:8 (msg ~kind:(Msg.Probe Msg.Inv) ())
    with
    | Fault.Drop -> Alcotest.fail "dropped a probe"
    | Fault.Deliver _ -> ()
  done;
  Alcotest.(check bool) "exemptions recorded" true
    (Stats.get stats "fault.exempt" = 50);
  (match Fault.route f ~now:600 ~latency:8 (msg ()) with
  | Fault.Drop -> ()
  | Fault.Deliver _ -> Alcotest.fail "did not drop an eligible request")

let fifo_clamp_monotone () =
  let spec =
    Fault.uniform ~delay:0.7 ~reorder:0.7 ~delay_min:5 ~delay_max:400
      ~reorder_window:300 ~seed:11 ()
  in
  let f = Fault.create spec ~stats:(Stats.create ()) in
  let last = ref 0 in
  for i = 0 to 199 do
    let now = i * 3 in
    match Fault.route f ~now ~latency:8 (msg ()) with
    | Fault.Drop -> Alcotest.fail "no drops in this plan"
    | Fault.Deliver delays ->
      List.iter
        (fun d ->
          let arrival = now + d in
          if arrival < !last then
            Alcotest.failf "per-pair FIFO violated: %d after %d" arrival !last;
          last := max !last arrival)
        delays
  done

(* ----- retry table unit tests ----------------------------------------------- *)

let retry_cfg =
  {
    Retry.base_timeout = 100;
    backoff_factor = 2;
    max_timeout = 400;
    jitter = 0;
    max_attempts = 4;
  }

let make_retry engine ?(cfg = retry_cfg) stats =
  Retry.create cfg ~seed:7
    ~schedule:(fun ~delay k -> Engine.schedule engine ~delay k)
    ~stats

let retry_backoff_schedule () =
  let engine = Engine.create () in
  let stats = Stats.create () in
  let r = make_retry engine stats in
  let fired = ref [] in
  Retry.arm r ~txn:1 ~describe:"probe txn"
    ~resend:(fun () -> fired := Engine.now engine :: !fired);
  (* Let it exhaust: 4 resends at exponentially-backed-off times, then
     [Exhausted] on the fifth firing. *)
  let exhausted = ref false in
  (try ignore (Engine.run_all engine)
   with Retry.Exhausted m ->
     exhausted := true;
     Alcotest.(check bool) "message names txn" true
       (contains ~sub:"txn 1" m && contains ~sub:"probe txn" m));
  Alcotest.(check bool) "exhausted raised" true !exhausted;
  Alcotest.(check (list int))
    "resends at base * factor^n, capped" [ 100; 300; 700; 1100 ]
    (List.rev !fired);
  Alcotest.(check int) "resend counter" 4 (Stats.get stats "retry.resend")

let retry_complete_cancels () =
  let engine = Engine.create () in
  let stats = Stats.create () in
  let r = make_retry engine stats in
  let fired = ref 0 in
  Retry.arm r ~txn:3 ~describe:"fast txn" ~resend:(fun () -> incr fired);
  Engine.schedule engine ~delay:50 (fun () -> Retry.complete r ~txn:3);
  ignore (Engine.run_all engine);
  Alcotest.(check int) "no resends after completion" 0 !fired;
  Alcotest.(check int) "pending drained" 0 (Retry.pending r);
  Alcotest.(check int) "not counted recovered" 0
    (Stats.get stats "retry.recovered")

let retry_recovered_counted () =
  let engine = Engine.create () in
  let stats = Stats.create () in
  let r = make_retry engine stats in
  Retry.arm r ~txn:9 ~describe:"slow txn" ~resend:(fun () -> ());
  (* Complete after the first resend: one recovery. *)
  Engine.schedule engine ~delay:150 (fun () -> Retry.complete r ~txn:9);
  ignore (Engine.run_all engine);
  Alcotest.(check int) "one resend" 1 (Stats.get stats "retry.resend");
  Alcotest.(check int) "recovered" 1 (Stats.get stats "retry.recovered")

let retry_multi_arm_appends () =
  let engine = Engine.create () in
  let r = make_retry engine (Stats.create ()) in
  let order = ref [] in
  Retry.arm r ~txn:4 ~describe:"two msgs"
    ~resend:(fun () -> order := "first" :: !order);
  Retry.arm r ~txn:4 ~describe:"two msgs"
    ~resend:(fun () -> order := "second" :: !order);
  Engine.schedule engine ~delay:120 (fun () -> Retry.complete r ~txn:4);
  ignore (Engine.run_all engine);
  Alcotest.(check (list string))
    "both resends run in issue order" [ "first"; "second" ] (List.rev !order)

(* ----- engine unit tests ----------------------------------------------------- *)

let run_all_honors_step_limit () =
  let engine = Engine.create () in
  Engine.set_step_limit engine 100;
  let rec churn () = Engine.schedule engine ~delay:1 churn in
  churn ();
  match Engine.run_all engine with
  | _ -> Alcotest.fail "expected Deadlock from the step limit"
  | exception Engine.Deadlock m ->
    Alcotest.(check bool) "names the limit" true
      (contains ~sub:"step limit" m)

let watchdog_raises_livelock () =
  let engine = Engine.create () in
  let rec churn () = Engine.schedule engine ~delay:10 churn in
  churn ();
  let item =
    { Engine.pw_device = "comp.0"; pw_txn = 42; pw_line = 5; pw_what = "stuck" }
  in
  Engine.register_pending_source engine (fun () -> [ item ]);
  Engine.set_watchdog engine ~interval:1_000 ~progress:(fun () -> 0);
  match Engine.run engine ~until_done:(fun () -> false) with
  | _ -> Alcotest.fail "expected Livelock"
  | exception (Engine.Livelock l as e) ->
    Alcotest.(check bool) "stall measured" true (l.Engine.stalled_for >= 1_000);
    Alcotest.(check bool) "carries the live work" true (l.Engine.work = [ item ]);
    Alcotest.(check bool) "printer shows the work" true
      (contains ~sub:"comp.0: stuck (txn 42, line 5)" (Printexc.to_string e))

let watchdog_quiet_when_progressing () =
  let engine = Engine.create () in
  let ops = ref 0 in
  let rec work n = if n > 0 then Engine.schedule engine ~delay:100 (fun () -> incr ops; work (n - 1)) in
  work 200;
  Engine.set_watchdog engine ~interval:1_000 ~progress:(fun () -> !ops);
  let cycles = Engine.run engine ~until_done:(fun () -> !ops = 200) in
  Alcotest.(check int) "ran to completion" 20_000 cycles

(* ----- end-to-end recovery -------------------------------------------------- *)

(* Every config must survive cleanly ([simulate] asserts the checks); the
   fault and retry counters are summed across configs before requiring
   them non-zero — at low probabilities a single small run can
   legitimately draw zero faults. *)
let assert_recovers ~spec ~configs wl =
  let injected = ref 0 and resends = ref 0 in
  List.iter
    (fun config ->
      let r = simulate ~params:(faulty_params spec) config wl in
      let s = Report.fault_summary r in
      injected := !injected + s.Report.injected;
      resends := !resends + s.Report.resends)
    configs;
  if !injected = 0 then Alcotest.fail "plan injected no faults";
  if !resends = 0 then Alcotest.fail "no retries exercised"

let recovers_drop_dup () =
  List.iter
    (fun seed ->
      let spec = Fault.uniform ~drop:0.02 ~dup:0.02 ~seed () in
      assert_recovers ~spec ~configs:Config.all (producer_consumer ());
      assert_recovers ~spec
        ~configs:[ Config.by_name "SDD"; Config.by_name "HMG" ]
        (graph ()))
    [ 1; 2; 3 ]

let recovers_all_fault_types () =
  List.iter
    (fun seed ->
      let spec =
        Fault.uniform ~drop:0.03 ~dup:0.03 ~delay:0.05 ~reorder:0.05 ~seed ()
      in
      assert_recovers ~spec ~configs:Config.all (producer_consumer ()))
    [ 1; 2; 3 ]

let recovers_heavy_loss () =
  (* 10% loss: most transactions need at least one resend; several need the
     home reply cache (duplicate arrivals of non-idempotent requests). *)
  let spec = Fault.uniform ~drop:0.1 ~dup:0.1 ~seed:99 () in
  assert_recovers ~spec ~configs:Config.all (producer_consumer ())

let zero_prob_plan_is_identity () =
  (* An armed plan whose probabilities are all zero must not perturb timing:
     proves the hooks themselves are behavior-neutral. *)
  let wl = producer_consumer () in
  let base = simulate ~params:quick_params Config.smd wl in
  let spec = Fault.uniform ~seed:1 () in
  let armed = simulate ~params:(faulty_params spec) Config.smd wl in
  Alcotest.(check int) "cycles identical" base.Run.cycles armed.Run.cycles;
  Alcotest.(check int) "flits identical" base.Run.total_flits
    armed.Run.total_flits;
  Alcotest.(check int) "messages identical" base.Run.messages armed.Run.messages

let total_loss_trips_watchdog () =
  (* Drop everything eligible: requests re-send forever, nothing completes.
     The watchdog must convert the spin into a structured Livelock naming
     the stuck component and its pending transaction. *)
  let spec =
    Fault.uniform ~drop:1.0
      ~retry:{ Retry.default with Retry.max_attempts = max_int - 1 }
      ~seed:1 ()
  in
  let params = { (faulty_params ~watchdog:20_000 spec) with Params.cpu_cores = 1; gpu_cus = 1 } in
  match Run.simulate ~params ~config:Config.smd (producer_consumer ()) with
  | _ -> Alcotest.fail "expected Livelock under total message loss"
  | exception Engine.Livelock l ->
    Alcotest.(check bool) "stalled at least the interval" true
      (l.Engine.stalled_for >= 20_000);
    Alcotest.(check bool) "names an L1 and a pending txn" true
      (List.exists
         (fun w ->
           contains ~sub:"l1." w.Engine.pw_device && w.Engine.pw_txn >= 0)
         l.Engine.work)

let total_loss_exhausts_retries () =
  (* With the watchdog off and a small attempt cap, the retry table itself
     reports the dead transaction. *)
  let spec =
    Fault.uniform ~drop:1.0
      ~retry:{ Retry.default with Retry.max_attempts = 3 }
      ~seed:1 ()
  in
  let params = faulty_params ~watchdog:0 spec in
  match Run.simulate ~params ~config:Config.smd (producer_consumer ()) with
  | _ -> Alcotest.fail "expected Exhausted under total message loss"
  | exception Retry.Exhausted m ->
    Alcotest.(check bool) "names the txn" true
      (contains ~sub:"txn" m)

let fault_report_totals () =
  let spec = Fault.uniform ~drop:0.05 ~dup:0.05 ~seed:2 () in
  let r = simulate ~params:(faulty_params spec) Config.sdd (producer_consumer ()) in
  let s = Report.fault_summary r in
  Alcotest.(check int) "injected = drop + dup + delay + reorder"
    s.Report.injected
    (s.Report.dropped + s.Report.duplicated + s.Report.delayed
   + s.Report.reordered);
  Alcotest.(check bool) "recovered <= resends" true
    (s.Report.recovered <= s.Report.resends)

let tests =
  [
    test "faultable_classification" faultable_classification;
    test "plan_deterministic" plan_deterministic;
    test "lossless_never_dropped" lossless_never_dropped;
    test "fifo_clamp_monotone" fifo_clamp_monotone;
    test "retry_backoff_schedule" retry_backoff_schedule;
    test "retry_complete_cancels" retry_complete_cancels;
    test "retry_recovered_counted" retry_recovered_counted;
    test "retry_multi_arm_appends" retry_multi_arm_appends;
    test "run_all_honors_step_limit" run_all_honors_step_limit;
    test "watchdog_raises_livelock" watchdog_raises_livelock;
    test "watchdog_quiet_when_progressing" watchdog_quiet_when_progressing;
    test "recovers_drop_dup" recovers_drop_dup;
    test "recovers_all_fault_types" recovers_all_fault_types;
    test "recovers_heavy_loss" recovers_heavy_loss;
    test "zero_prob_plan_is_identity" zero_prob_plan_is_identity;
    test "total_loss_trips_watchdog" total_loss_trips_watchdog;
    test "total_loss_exhausts_retries" total_loss_exhausts_retries;
    test "fault_report_totals" fault_report_totals;
  ]
