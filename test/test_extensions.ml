(* Tests for the implemented extensions: DeNovo regions (paper II-C), the
   ReqS policy options (III-B), and the adaptive write policy (V). *)

module Engine = Spandex_sim.Engine
module Msg = Spandex_proto.Msg
module Addr = Spandex_proto.Addr
module Mask = Spandex_util.Mask
module State = Spandex_proto.State
module Port = Spandex_device.Port
module Denovo_l1 = Spandex_denovo.Denovo_l1
module Config = Spandex_system.Config
module Params = Spandex_system.Params
module Run = Spandex_system.Run
module Registry = Spandex_workloads.Registry
module Microbench = Spandex_workloads.Microbench
module Llc = Spandex.Llc

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let geom = { Microbench.cpus = 2; cus = 2; warps = 2 }

let params =
  { Params.bench with Params.cpu_cores = 2; gpu_cus = 2; warps_per_cu = 2 }

(* ----- DeNovo regions --------------------------------------------------------- *)

(* Build a standalone DeNovo L1 with a scripted LLC, like test_devices. *)
let denovo_standalone ~policy region_of =
  let engine = Engine.create () in
  let net = Spandex_net.Network.create engine (Spandex_net.Network.flat_topology ~latency:2) in
  let llc_inbox = ref [] in
  Spandex_net.Network.register net ~id:10 (fun m -> llc_inbox := m :: !llc_inbox);
  let l1 =
    Denovo_l1.create ~name:"denovo_l1.0" engine net
      {
        Denovo_l1.id = 0;
        llc_id = 10;
        llc_banks = 1;
        sets = 8;
        ways = 2;
        mshrs = 8;
        sb_capacity = 8;
        hit_latency = 1;
        coalesce_window = 2;
        max_reqv_retries = 1;
        atomics_at_llc = false;
        region_of;
        policy;
      }
  in
  (engine, net, llc_inbox, l1)

let denovo_with_regions region_of =
  denovo_standalone ~policy:Spandex_l1.Spandex_policy.Static_own region_of

let fill_valid engine net llc_inbox l1 ~line =
  let port = Denovo_l1.port l1 in
  port.Port.load (Addr.make ~line ~word:0) ~k:(fun _ -> ());
  ignore (Engine.run_all ~strict:false engine);
  let m =
    Proto_harness.expect_kind ~what:"fill" (List.rev !llc_inbox)
      (Msg.Req Msg.ReqV)
  in
  llc_inbox := [];
  Spandex_net.Network.send net
    (Msg.make ~txn:m.Msg.txn ~kind:(Msg.Rsp Msg.RspV) ~line ~mask:m.Msg.mask
       ~payload:(Msg.Data (Array.make (Mask.count m.Msg.mask) 5))
       ~src:10 ~dst:0 ());
  ignore (Engine.run_all ~strict:false engine)

let region_acquire_selective () =
  (* Lines < 100 are region 0, >= 100 are region 1. *)
  let engine, net, llc_inbox, l1 =
    denovo_with_regions (fun line -> if line < 100 then 0 else 1)
  in
  fill_valid engine net llc_inbox l1 ~line:3;
  fill_valid engine net llc_inbox l1 ~line:103;
  check_bool "both valid" true
    (Denovo_l1.word_state l1 (Addr.make ~line:3 ~word:0) = State.V
    && Denovo_l1.word_state l1 (Addr.make ~line:103 ~word:0) = State.V);
  let port = Denovo_l1.port l1 in
  port.Port.acquire_region ~region:1 ~k:(fun () -> ());
  ignore (Engine.run_all ~strict:false engine);
  check_bool "region 1 invalidated" true
    (Denovo_l1.word_state l1 (Addr.make ~line:103 ~word:0) = State.I);
  check_bool "region 0 preserved" true
    (Denovo_l1.word_state l1 (Addr.make ~line:3 ~word:0) = State.V);
  port.Port.acquire ~k:(fun () -> ());
  ignore (Engine.run_all ~strict:false engine);
  check_bool "full acquire clears the rest" true
    (Denovo_l1.word_state l1 (Addr.make ~line:3 ~word:0) = State.I)

let region_workload_correct_everywhere () =
  (* The regions workload must stay DRF-correct on every configuration,
     with and without region-selective barriers. *)
  List.iter
    (fun use_regions ->
      let wl = Microbench.region_reuse ~scale:0.5 ~use_regions geom in
      List.iter
        (fun config ->
          Run.assert_clean (Run.simulate ~params ~config wl))
        Config.extended)
    [ true; false ]

let region_reduces_invalidation_traffic () =
  let run use_regions =
    Run.simulate ~params ~config:Config.sdd
      (Microbench.region_reuse ~scale:1.0 ~use_regions geom)
  in
  let with_r = run true and without = run false in
  Run.assert_clean with_r;
  Run.assert_clean without;
  check_bool "regions reduce traffic on SDD" true
    (with_r.Run.total_flits < without.Run.total_flits)

(* ----- ReqS policy options ----------------------------------------------------- *)

let reqs_policy_results_identical () =
  (* All four policies are correct; they differ only in performance. *)
  let wl = (Registry.find "reuses").Registry.build ~scale:0.25 geom in
  List.iter
    (fun policy ->
      let p = { params with Params.reqs_policy = policy } in
      List.iter
        (fun config -> Run.assert_clean (Run.simulate ~params:p ~config wl))
        Config.all)
    [ Llc.Reqs_auto; Llc.Reqs_shared; Llc.Reqs_valid; Llc.Reqs_owned ]

let reqs_option2_precludes_reuse () =
  (* With option (2), writer-invalidated readers cannot retain data, so the
     dense re-reads of ReuseS all miss: far more read traffic. *)
  let wl = (Registry.find "reuses").Registry.build ~scale:0.5 geom in
  let run policy =
    Run.simulate ~params:{ params with Params.reqs_policy = policy }
      ~config:Config.smd wl
  in
  let auto = run Llc.Reqs_auto and valid = run Llc.Reqs_valid in
  check_bool "option 2 costs traffic" true
    (valid.Run.total_flits > 2 * auto.Run.total_flits)

let reqs_option2_served_as_reqv () =
  (* Unit-level: an LLC under Reqs_valid answers ReqS with RspV and grants
     neither Shared state nor ownership. *)
  let open Proto_harness in
  let t =
    setup_with_policy ~is_mesi:(fun _ -> true)
      ~reqs_policy:Llc.Reqs_valid ()
  in
  ignore (req t ~from:0 ~kind:Msg.ReqS ~line:4 ~mask:Addr.full_mask ());
  ignore (expect_kind ~what:"valid data" (inbox t 0) (Msg.Rsp Msg.RspV));
  check_bool "no sharers" true (Llc.sharers t.llc ~line:4 = []);
  check_bool "no owner" true (Mask.is_empty (Llc.owned_mask t.llc ~line:4))

let reqs_option1_forced () =
  let open Proto_harness in
  let t =
    setup_with_policy ~is_mesi:(fun _ -> false)
      ~reqs_policy:Llc.Reqs_shared ()
  in
  ignore (req t ~from:0 ~kind:Msg.ReqS ~line:4 ~mask:Addr.full_mask ());
  ignore (expect_kind ~what:"shared data" (inbox t 0) (Msg.Rsp Msg.RspS));
  check_bool "line shared" true
    (Llc.line_state t.llc ~line:4 = Some State.L_S);
  check_int "one sharer" 1 (List.length (Llc.sharers t.llc ~line:4))

(* ----- adaptive write policy ---------------------------------------------------- *)

let adaptive_streams_write_through () =
  let engine = Engine.create () in
  let net = Spandex_net.Network.create engine (Spandex_net.Network.flat_topology ~latency:2) in
  let llc_inbox = ref [] in
  Spandex_net.Network.register net ~id:10 (fun m -> llc_inbox := m :: !llc_inbox);
  let l1 =
    Denovo_l1.create ~name:"denovo_l1.0" engine net
      {
        Denovo_l1.id = 0;
        llc_id = 10;
        llc_banks = 1;
        sets = 8;
        ways = 2;
        mshrs = 8;
        sb_capacity = 8;
        hit_latency = 1;
        coalesce_window = 2;
        max_reqv_retries = 1;
        atomics_at_llc = false;
        region_of = (fun _ -> 0);
        policy = Spandex_l1.Spandex_policy.adaptive_writes;
      }
  in
  let port = Denovo_l1.port l1 in
  (* A cold store streams: the predictor has no reuse evidence. *)
  port.Port.store (Addr.make ~line:2 ~word:0) ~value:1 ~k:(fun () -> ());
  port.Port.release ~k:(fun () -> ());
  ignore (Engine.run_all ~strict:false engine);
  let m =
    Proto_harness.expect_kind ~what:"streaming store" (List.rev !llc_inbox)
      (Msg.Req Msg.ReqWT)
  in
  check_bool "write-through carries data" true (m.Msg.payload <> Msg.No_data);
  Spandex_net.Network.send net
    (Msg.make ~txn:m.Msg.txn ~kind:(Msg.Rsp Msg.RspWT) ~line:2 ~mask:m.Msg.mask
       ~src:10 ~dst:0 ());
  ignore (Engine.run_all ~strict:false engine);
  check_bool "completed as Valid, not Owned" true
    (Denovo_l1.word_state l1 (Addr.make ~line:2 ~word:0) = State.V);
  (* Rapid re-writes to the same line are reuse evidence: the predictor
     switches the line to ownership. *)
  llc_inbox := [];
  let rec rewrite n k =
    if n = 0 then k ()
    else
      port.Port.store (Addr.make ~line:2 ~word:0) ~value:n ~k:(fun () ->
          port.Port.release ~k:(fun () ->
              (match
                 List.find_opt
                   (fun (m : Msg.t) -> m.Msg.kind = Msg.Req Msg.ReqWT)
                   !llc_inbox
               with
              | Some m ->
                Spandex_net.Network.send net
                  (Msg.make ~txn:m.Msg.txn ~kind:(Msg.Rsp Msg.RspWT) ~line:2
                     ~mask:m.Msg.mask ~src:10 ~dst:0 ());
                llc_inbox := []
              | None -> ());
              rewrite (n - 1) k))
  in
  rewrite 3 (fun () -> ());
  ignore (Engine.run_all ~strict:false engine);
  port.Port.store (Addr.make ~line:2 ~word:1) ~value:9 ~k:(fun () -> ());
  port.Port.release ~k:(fun () -> ());
  ignore (Engine.run_all ~strict:false engine);
  ignore
    (Proto_harness.expect_kind ~what:"switched to ownership"
       (List.rev !llc_inbox) (Msg.Req Msg.ReqO))

let adaptive_config_correct () =
  List.iter
    (fun config ->
      List.iter
        (fun wname ->
          let wl = (Registry.find wname).Registry.build ~scale:0.25 geom in
          Run.assert_clean (Run.simulate ~params ~config wl))
        [ "reuseo"; "indirection"; "bc"; "stress" ])
    [ Config.sda; Config.saa ]

let adaptive_promotes_repeated_read_misses () =
  (* SAA's read-side adaptation: with [adaptive_full] (read threshold 2),
     the first two misses to a line go out as ReqV, the third is promoted
     to ReqO+data and its fill installs as Owned, surviving acquires. *)
  let engine, net, llc_inbox, l1 =
    denovo_standalone ~policy:Spandex_l1.Spandex_policy.adaptive_full
      (fun _ -> 0)
  in
  let port = Denovo_l1.port l1 in
  let respond (m : Msg.t) ~kind =
    Spandex_net.Network.send net
      (Msg.make ~txn:m.Msg.txn ~kind:(Msg.Rsp kind) ~line:2 ~mask:m.Msg.demand
         ~payload:(Msg.Data (Array.make (Mask.count m.Msg.demand) 7))
         ~src:10 ~dst:0 ())
  in
  for i = 1 to 2 do
    port.Port.load (Addr.make ~line:2 ~word:0) ~k:(fun _ -> ());
    ignore (Engine.run_all ~strict:false engine);
    let m =
      Proto_harness.expect_kind
        ~what:(Printf.sprintf "cold miss %d" i)
        (List.rev !llc_inbox) (Msg.Req Msg.ReqV)
    in
    llc_inbox := [];
    respond m ~kind:Msg.RspV;
    ignore (Engine.run_all ~strict:false engine);
    port.Port.acquire ~k:(fun () -> ());
    ignore (Engine.run_all ~strict:false engine)
  done;
  port.Port.load (Addr.make ~line:2 ~word:0) ~k:(fun _ -> ());
  ignore (Engine.run_all ~strict:false engine);
  let m =
    Proto_harness.expect_kind ~what:"promoted miss" (List.rev !llc_inbox)
      (Msg.Req Msg.ReqOdata)
  in
  llc_inbox := [];
  respond m ~kind:Msg.RspOdata;
  ignore (Engine.run_all ~strict:false engine);
  check_bool "promoted fill installs Owned" true
    (Denovo_l1.word_state l1 (Addr.make ~line:2 ~word:0) = State.O);
  port.Port.acquire ~k:(fun () -> ());
  ignore (Engine.run_all ~strict:false engine);
  check_bool "owned fill survives the acquire" true
    (Denovo_l1.word_state l1 (Addr.make ~line:2 ~word:0) = State.O)

let adaptive_read_promotion_reduces_traffic () =
  (* On the read-reuse workload with repeated acquires, SAA's promoted
     reads retain data across synchronization that SDA keeps re-fetching. *)
  let wl = (Registry.find "reuseo").Registry.build ~scale:0.5 geom in
  let run config =
    let r = Run.simulate ~params ~config wl in
    Run.assert_clean r;
    r
  in
  let saa = run Config.saa in
  let promoted =
    List.fold_left
      (fun acc (n, v) ->
        if String.ends_with ~suffix:"load_promoted_own" n then acc + v else acc)
      0
      (Spandex_util.Stats.to_assoc saa.Run.stats)
  in
  check_bool "promotions happened" true (promoted > 0)

let adaptive_tracks_best_static () =
  (* On the ownership-friendly workload the adaptive policy must land close
     to SDD (within 20%), far from the pure write-through loss. *)
  let wl = (Registry.find "reuseo").Registry.build ~scale:0.5 geom in
  let flits config =
    let r = Run.simulate ~params ~config wl in
    Run.assert_clean r;
    r.Run.total_flits
  in
  let sdd = flits Config.sdd and sda = flits Config.sda in
  check_bool "adaptive near SDD on reuseo" true
    (float_of_int sda < 1.2 *. float_of_int sdd)

let tests =
  [
    test "region_acquire_selective" region_acquire_selective;
    test "region_workload_correct_everywhere" region_workload_correct_everywhere;
    test "region_reduces_invalidation_traffic" region_reduces_invalidation_traffic;
    test "reqs_policy_results_identical" reqs_policy_results_identical;
    test "reqs_option2_precludes_reuse" reqs_option2_precludes_reuse;
    test "reqs_option2_served_as_reqv" reqs_option2_served_as_reqv;
    test "reqs_option1_forced" reqs_option1_forced;
    test "adaptive_streams_write_through" adaptive_streams_write_through;
    test "adaptive_config_correct" adaptive_config_correct;
    test "adaptive_tracks_best_static" adaptive_tracks_best_static;
    test "adaptive_promotes_repeated_read_misses"
      adaptive_promotes_repeated_read_misses;
    test "adaptive_read_promotion_reduces_traffic"
      adaptive_read_promotion_reduces_traffic;
  ]
