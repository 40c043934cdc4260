(* Tests for the event engine, network model, barriers and the core model. *)

module Engine = Spandex_sim.Engine
module Network = Spandex_net.Network
module Msg = Spandex_proto.Msg
module Mask = Spandex_util.Mask
module Barrier = Spandex_device.Barrier

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ----- Engine ------------------------------------------------------------------ *)

let engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:5 (fun () -> log := "b" :: !log);
  Engine.schedule e ~delay:1 (fun () -> log := "a" :: !log);
  Engine.schedule e ~delay:5 (fun () -> log := "c" :: !log);
  let t = Engine.run_all e in
  check_int "final time" 5 t;
  Alcotest.(check (list string)) "order with fifo ties" [ "a"; "b"; "c" ]
    (List.rev !log)

let engine_nested_scheduling () =
  let e = Engine.create () in
  let hits = ref 0 in
  Engine.schedule e ~delay:2 (fun () ->
      incr hits;
      Engine.schedule e ~delay:3 (fun () ->
          incr hits;
          check_int "nested time" 5 (Engine.now e)));
  ignore (Engine.run_all e);
  check_int "both ran" 2 !hits

let stuck_item =
  { Engine.pw_device = "dev.0"; pw_txn = 7; pw_line = 3; pw_what = "stuck!" }

(* A queue that drains before [until_done] raises [Stuck] carrying the
   registered sources' live work. *)
let engine_deadlock_detection () =
  let e = Engine.create () in
  Engine.register_pending_source e (fun () -> [ stuck_item ]);
  Engine.schedule e ~delay:1 ignore;
  match Engine.run e ~until_done:(fun () -> false) with
  | _ -> Alcotest.fail "expected Stuck"
  | exception Engine.Stuck s ->
    check_int "drained at" 1 s.Engine.stuck_cycle;
    check_bool "live work propagated" true (s.Engine.stuck_work = [ stuck_item ])

(* The step limit raises [Deadlock] naming the limit and printing the live
   work. *)
let engine_step_limit () =
  let e = Engine.create () in
  Engine.register_pending_source e (fun () -> [ stuck_item ]);
  Engine.set_step_limit e 10;
  let rec spin () = Engine.schedule e ~delay:1 spin in
  spin ();
  match Engine.run e ~until_done:(fun () -> false) with
  | _ -> Alcotest.fail "expected Deadlock from step limit"
  | exception Engine.Deadlock m ->
    let has sub = Helpers.contains ~sub m in
    check_bool "names the limit" true (has "step limit 10");
    check_bool "prints the live work" true
      (has "dev.0: stuck! (txn 7, line 3)")

let engine_no_past_scheduling () =
  let e = Engine.create () in
  Engine.schedule e ~delay:5 (fun () ->
      match Engine.at e ~time:2 ignore with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ());
  ignore (Engine.run_all e)

(* A bare endpoint logging each delivered message's txn id. *)
let logging_endpoint log =
  {
    Engine.handler = (fun (m : Msg.t) -> log := m.Msg.txn :: !log);
    ingress_free = 0;
    in_flight = ref 0;
  }

let deliver e ep ~delay ~txn ~src =
  incr ep.Engine.in_flight;
  Engine.deliver e ~delay
    (Msg.make ~txn ~kind:(Msg.Req Msg.ReqV) ~line:0 ~mask:(Mask.singleton 0)
       ~src ~dst:0 ())
    ep

let engine_canonical_delivery_order () =
  (* Five deliveries all arriving at cycle 10, pushed from two send cycles
     in scrambled source order: dispatch follows the canonical key (send
     time, src, per-src seq), not push order. *)
  let e = Engine.create () in
  let order = ref [] in
  let ep = logging_endpoint order in
  Engine.at e ~time:8 (fun () ->
      deliver e ep ~delay:2 ~txn:3 ~src:9;
      deliver e ep ~delay:2 ~txn:1 ~src:3;
      deliver e ep ~delay:2 ~txn:2 ~src:3);
  Engine.at e ~time:9 (fun () ->
      deliver e ep ~delay:1 ~txn:5 ~src:2;
      deliver e ep ~delay:1 ~txn:4 ~src:1);
  ignore (Engine.run_all e);
  Alcotest.(check (list int)) "(t0, src, seq) order" [ 1; 2; 3; 4; 5 ]
    (List.rev !order);
  check_int "in flight drained" 0 !(ep.Engine.in_flight)

let engine_components_before_deliveries () =
  (* At one cycle, component events run before message deliveries, even
     when the delivery was queued first. *)
  let e = Engine.create () in
  let order = ref [] in
  let ep = logging_endpoint order in
  deliver e ep ~delay:10 ~txn:1 ~src:0;
  Engine.at e ~time:10 (fun () -> order := 0 :: !order);
  ignore (Engine.run_all e);
  Alcotest.(check (list int)) "component (0) first" [ 0; 1 ] (List.rev !order)

(* ----- Network ------------------------------------------------------------------- *)

let msg ?(payload = Msg.No_data) ~src ~dst () =
  Msg.make ~txn:1 ~kind:(Msg.Req Msg.ReqV) ~line:0 ~mask:(Mask.singleton 0)
    ~payload ~src ~dst ()

let network_delivery_latency () =
  let e = Engine.create () in
  let net = Network.create e (Network.flat_topology ~latency:7) in
  let arrival = ref (-1) in
  Network.register net ~id:1 (fun _ -> arrival := Engine.now e);
  Network.send net (msg ~src:0 ~dst:1 ());
  check_int "in flight" 1 (Network.in_flight net);
  ignore (Engine.run_all e);
  check_int "latency respected" 7 !arrival;
  check_int "drained" 0 (Network.in_flight net)

let network_ingress_serialization () =
  (* Two same-cycle arrivals at one endpoint drain one per cycle. *)
  let e = Engine.create () in
  let net = Network.create e (Network.flat_topology ~latency:3) in
  let arrivals = ref [] in
  Network.register net ~id:1 (fun _ -> arrivals := Engine.now e :: !arrivals);
  Network.send net (msg ~src:0 ~dst:1 ());
  Network.send net (msg ~src:2 ~dst:1 ());
  ignore (Engine.run_all e);
  Alcotest.(check (list int)) "serialized" [ 3; 4 ] (List.rev !arrivals)

let network_point_to_point_fifo () =
  let e = Engine.create () in
  let net = Network.create e (Network.flat_topology ~latency:4) in
  let order = ref [] in
  Network.register net ~id:1 (fun m -> order := m.Msg.txn :: !order);
  for i = 1 to 5 do
    Network.send net
      (Msg.make ~txn:i ~kind:(Msg.Req Msg.ReqV) ~line:0 ~mask:(Mask.singleton 0)
         ~src:0 ~dst:1 ())
  done;
  ignore (Engine.run_all e);
  Alcotest.(check (list int)) "fifo per pair" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let network_traffic_accounting () =
  let e = Engine.create () in
  let net = Network.create e (Network.flat_topology ~latency:1) in
  Network.register net ~id:1 ignore;
  Network.send net (msg ~src:0 ~dst:1 ());
  Network.send net (msg ~payload:(Msg.Data [| 5 |]) ~src:0 ~dst:1 ());
  ignore (Engine.run_all e);
  check_int "msgs" 2 (Network.messages_sent net);
  check_int "reqv flits: 1 control + (1 control + 1 data)" 3
    (Network.traffic_flits net Msg.Cat_ReqV);
  check_int "total" 3 (Network.total_flits net)

let network_grouped_topology () =
  let topo =
    Network.grouped_topology
      ~group_of:(fun id -> id / 10)
      ~local_latency:2 ~cross_latency:9
  in
  check_int "local" 2 (topo.Network.latency ~src:1 ~dst:2);
  check_int "cross" 9 (topo.Network.latency ~src:1 ~dst:12);
  check_int "local hops" 1 (topo.Network.hops ~src:1 ~dst:2);
  (* Hops derive from the latency structure: 9 cycles over 2-cycle links
     rounds to 5 link crossings, not a hardcoded 2. *)
  check_int "cross hops" 5 (topo.Network.hops ~src:1 ~dst:12);
  check_int "min latency" 2 topo.Network.min_latency

(* ----- Barrier --------------------------------------------------------------------- *)

let barrier_releases_all () =
  let e = Engine.create () in
  let b = Barrier.create e ~parties:3 in
  let released = ref 0 in
  Barrier.arrive b ~k:(fun () -> incr released);
  Barrier.arrive b ~k:(fun () -> incr released);
  ignore (Engine.run_all e);
  check_int "waits for all" 0 !released;
  check_int "waiting" 2 (Barrier.waiting b);
  Barrier.arrive b ~k:(fun () -> incr released);
  ignore (Engine.run_all e);
  check_int "all released" 3 !released;
  check_int "generation bumped" 1 (Barrier.generation b)

let barrier_cyclic_reuse () =
  let e = Engine.create () in
  let b = Barrier.create e ~parties:2 in
  let phase = ref 0 in
  let rec participant rounds =
    if rounds > 0 then
      Barrier.arrive b ~k:(fun () ->
          incr phase;
          participant (rounds - 1))
  in
  participant 3;
  participant 3;
  ignore (Engine.run_all e);
  check_int "three rounds of two" 6 !phase;
  check_int "three generations" 3 (Barrier.generation b)

(* ----- Core model ------------------------------------------------------------------- *)

(* A stub port that answers everything after a fixed delay and records the
   op sequence; lets us test warp interleaving in isolation. *)
let stub_port engine ~mem_delay log =
  {
    Spandex_device.Port.load =
      (fun a ~k ->
        log := `Load a :: !log;
        Engine.schedule engine ~delay:mem_delay (fun () -> k 0));
    store =
      (fun a ~value:_ ~k ->
        log := `Store a :: !log;
        Engine.schedule engine ~delay:1 k);
    rmw =
      (fun a _ ~k ->
        log := `Rmw a :: !log;
        Engine.schedule engine ~delay:mem_delay (fun () -> k 0));
    acquire = (fun ~k -> Engine.schedule engine ~delay:1 k);
    acquire_region = (fun ~region:_ ~k -> Engine.schedule engine ~delay:1 k);
    release = (fun ~k -> Engine.schedule engine ~delay:1 k);
  }

let core_warp_interleaving () =
  (* Two warps issuing long loads: the second warp's load issues while the
     first is outstanding — latency hiding. *)
  let e = Engine.create () in
  let log = ref [] in
  let port = stub_port e ~mem_delay:50 log in
  let check_log = Spandex_device.Check_log.create () in
  let addr i = Spandex_proto.Addr.make ~line:i ~word:0 in
  let prog i = [| Spandex_device.Ops.Load (addr i); Spandex_device.Ops.Load (addr (10 + i)) |] in
  let core =
    Spandex_device.Core.create e ~port ~barriers:[||] ~check_log ~core_id:0
      ~clock:1
      ~programs:[| Spandex_device.Program.of_ops (prog 0); Spandex_device.Program.of_ops (prog 1) |]
  in
  Spandex_device.Core.start core;
  let finish =
    Engine.run e
      ~until_done:(fun () -> Spandex_device.Core.finished core)
  in
  (* 4 loads of 50 cycles: serial execution would be ~200; interleaving two
     warps halves it. *)
  check_bool "latency hidden" true (finish < 150);
  check_int "all ops issued" 4 (List.length !log)

let core_single_context_blocks () =
  let e = Engine.create () in
  let log = ref [] in
  let port = stub_port e ~mem_delay:50 log in
  let check_log = Spandex_device.Check_log.create () in
  let addr i = Spandex_proto.Addr.make ~line:i ~word:0 in
  let core =
    Spandex_device.Core.create e ~port ~barriers:[||] ~check_log ~core_id:0
      ~clock:1
      ~programs:
        [|
          Spandex_device.Program.of_ops
            [| Spandex_device.Ops.Load (addr 0); Spandex_device.Ops.Load (addr 1) |];
        |]
  in
  Spandex_device.Core.start core;
  let finish =
    Engine.run e
      ~until_done:(fun () -> Spandex_device.Core.finished core)
  in
  check_bool "blocking loads serialize" true (finish >= 100)

let core_gpu_clock_scaling () =
  let e = Engine.create () in
  let log = ref [] in
  let port = stub_port e ~mem_delay:1 log in
  let check_log = Spandex_device.Check_log.create () in
  let compute =
    Spandex_device.Program.of_ops (Array.make 10 (Spandex_device.Ops.Compute 1))
  in
  let core =
    Spandex_device.Core.create e ~port ~barriers:[||] ~check_log ~core_id:0
      ~clock:3 ~programs:[| compute |]
  in
  Spandex_device.Core.start core;
  let finish =
    Engine.run e
      ~until_done:(fun () -> Spandex_device.Core.finished core)
  in
  check_bool "slow clock scales issue" true (finish >= 30)

(* ----- Allocation pins ------------------------------------------------------------ *)

(* The dispatch loop and the core's issue path allocate nothing per event
   or per op ({!Helpers.check_flat}). *)

let run_until e until_done =
  ignore (Engine.run e ~until_done : int)

(* [Engine.run] over [n] pre-scheduled [apply_later] events sharing one
   continuation.  Only the run is measured; a warm-up round first grows
   the event free-list, so the measured round's recycling fits in it. *)
let engine_run_words n =
  let e = Engine.create () in
  let fired = ref 0 in
  let k (_ : int) = incr fired in
  let schedule () =
    fired := 0;
    for i = 1 to n do
      Engine.apply_later e ~delay:(i land 255) k i
    done
  in
  let until_done () = !fired = n in
  schedule ();
  run_until e until_done;
  schedule ();
  let w0 = Gc.minor_words () in
  run_until e until_done;
  Gc.minor_words () -. w0

let engine_run_allocation_flat () =
  Helpers.check_flat "Engine.run" ~words:engine_run_words

(* A core running the packed program of [n] ops [op i] against a port
   that answers every load through [Engine.apply_later] and accepts every
   store through [Engine.schedule]; the program is built before the
   measurement. *)
let core_words ~op n =
  let e = Engine.create () in
  let fail _ = Alcotest.fail "unexpected port call" in
  let port =
    {
      Spandex_device.Port.load = (fun _ ~k -> Engine.apply_later e ~delay:2 k 7);
      store = (fun _ ~value:_ ~k -> Engine.schedule e ~delay:2 k);
      rmw = (fun _ _ ~k:_ -> fail ());
      acquire = (fun ~k:_ -> fail ());
      acquire_region = (fun ~region:_ ~k:_ -> fail ());
      release = (fun ~k:_ -> fail ());
    }
  in
  let check_log = Spandex_device.Check_log.create () in
  let prog = Spandex_device.Program.of_ops (Array.init n op) in
  let core =
    Spandex_device.Core.create e ~port ~barriers:[||] ~check_log ~core_id:0
      ~clock:1 ~programs:[| prog |]
  in
  let w0 = Gc.minor_words () in
  Spandex_device.Core.start core;
  run_until e (fun () -> Spandex_device.Core.finished core);
  let words = Gc.minor_words () -. w0 in
  check_bool "every check clean" true (Spandex_device.Check_log.is_clean check_log);
  (words, check_log)

let line i = Spandex_proto.Addr.make ~line:i ~word:0

let core_check_words n =
  let words, check_log =
    core_words ~op:(fun i -> Spandex_device.Ops.Check (line i, 7)) n
  in
  check_int "every check counted" n (Spandex_device.Check_log.checks check_log);
  words

let core_check_allocation_flat () =
  Helpers.check_flat "Core issuing Check ops" ~words:core_check_words

let core_load_store_allocation_flat () =
  Helpers.check_flat "Core issuing Load ops"
    ~words:(fun n -> fst (core_words ~op:(fun i -> Spandex_device.Ops.Load (line i)) n));
  Helpers.check_flat "Core issuing Store ops"
    ~words:(fun n ->
      fst (core_words ~op:(fun i -> Spandex_device.Ops.Store (line i, i)) n))

(* [Run.build] validates the workload in every cell, so validation walks
   the code words without decoding them. *)
let validate_words n =
  let op i =
    if i mod 2 = 0 then Spandex_device.Ops.Barrier_region (0, 1)
    else Spandex_device.Ops.Check (line i, 7)
  in
  let program = Spandex_device.Program.of_ops (Array.init n op) in
  let wl =
    {
      Spandex_system.Workload.name = "validate";
      cpu_programs = [| program |];
      gpu_programs = [| [| program |] |];
      barrier_parties = [| 2 |];
      region_of = (fun _ -> 0);
    }
  in
  let w0 = Gc.minor_words () in
  Spandex_system.Workload.validate wl;
  Gc.minor_words () -. w0

let validate_allocation_flat () =
  Helpers.check_flat "Workload.validate" ~words:validate_words

let tests =
  [
    test "engine_ordering" engine_ordering;
    test "engine_nested_scheduling" engine_nested_scheduling;
    test "engine_deadlock_detection" engine_deadlock_detection;
    test "engine_step_limit" engine_step_limit;
    test "engine_no_past_scheduling" engine_no_past_scheduling;
    test "engine_canonical_delivery_order" engine_canonical_delivery_order;
    test "engine_components_before_deliveries"
      engine_components_before_deliveries;
    test "network_delivery_latency" network_delivery_latency;
    test "network_ingress_serialization" network_ingress_serialization;
    test "network_point_to_point_fifo" network_point_to_point_fifo;
    test "network_traffic_accounting" network_traffic_accounting;
    test "network_grouped_topology" network_grouped_topology;
    test "barrier_releases_all" barrier_releases_all;
    test "barrier_cyclic_reuse" barrier_cyclic_reuse;
    test "core_warp_interleaving" core_warp_interleaving;
    test "core_single_context_blocks" core_single_context_blocks;
    test "core_gpu_clock_scaling" core_gpu_clock_scaling;
    test "engine_run_allocation_flat" engine_run_allocation_flat;
    test "core_check_allocation_flat" core_check_allocation_flat;
    test "core_load_store_allocation_flat" core_load_store_allocation_flat;
    test "validate_allocation_flat" validate_allocation_flat;
  ]
