(* Unit tests for the hierarchical baseline: the directory MESI LLC and
   (through small-cache integration runs) the GPU L2 + client recalls. *)

module Engine = Spandex_sim.Engine
module Network = Spandex_net.Network
module Msg = Spandex_proto.Msg
module Addr = Spandex_proto.Addr
module Mask = Spandex_util.Mask
module Dram = Spandex_mem.Dram
module Mesi_dir = Spandex_mesi.Mesi_dir

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let dir_id = 10
let full = Addr.full_mask
let expect = Proto_harness.expect_kind
let expect_no = Proto_harness.expect_no_kind
let values = Proto_harness.payload_list

type h = {
  engine : Engine.t;
  net : Network.t;
  dram : Dram.t;
  dir : Mesi_dir.t;
  inboxes : Msg.t list ref array;
}

let harness ?(sets = 16) ?(ways = 4) ?fault () =
  Spandex_proto.Txn.reset ();
  let engine = Engine.create () in
  let net = Network.create ?fault engine (Network.flat_topology ~latency:2) in
  let dram = Dram.create engine ~latency:5 ~service_interval:0 in
  let dir =
    Mesi_dir.create ~name:"dir" engine net dram
      { Mesi_dir.dir_id; banks = 1; sets; ways; access_latency = 1 }
  in
  let inboxes =
    Array.init 3 (fun id ->
        let inbox = ref [] in
        Network.register net ~id (fun m -> inbox := m :: !inbox);
        inbox)
  in
  { engine; net; dram; dir; inboxes }

let run h = ignore (Engine.run_all ~strict:false h.engine)
let msgs h i = List.rev !(h.inboxes.(i))
let clear h = Array.iter (fun r -> r := []) h.inboxes

let send h ?payload ?txn ~from ~kind ~line () =
  let txn = match txn with Some t -> t | None -> Spandex_proto.Txn.fresh () in
  Network.send h.net
    (Msg.make ~txn ~kind ~line ~mask:full ?payload ~src:from ~dst:dir_id ());
  run h;
  txn

let gets h ~from ~line = ignore (send h ~from ~kind:(Msg.Req Msg.ReqS) ~line ())
let getm h ~from ~line = ignore (send h ~from ~kind:(Msg.Req Msg.ReqOdata) ~line ())

let dir_e_grant_then_fwd_gets () =
  let h = harness () in
  gets h ~from:0 ~line:3;
  (* First reader gets Exclusive (RspOdata). *)
  ignore (expect ~what:"E grant" (msgs h 0) (Msg.Rsp Msg.RspOdata));
  check_bool "dir tracks owner" true
    (Mesi_dir.line_state h.dir ~line:3 = Some (Mesi_dir.D_M 0));
  clear h;
  (* Second reader: blocking FwdGetS to the owner. *)
  gets h ~from:1 ~line:3;
  let fwd = expect ~what:"fwdgets" (msgs h 0) (Msg.Req Msg.ReqS) in
  check_int "requestor" 1 fwd.Msg.requestor;
  expect_no ~what:"reader blocked" (msgs h 1) (Msg.Rsp Msg.RspS);
  (* A third request is queued while the line is in a transient state. *)
  gets h ~from:2 ~line:3;
  expect_no ~what:"third queued" (msgs h 2) (Msg.Rsp Msg.RspS);
  (* Owner confirms with a write-back copy; both readers proceed. *)
  ignore
    (send h ~from:0 ~kind:(Msg.Rsp Msg.RspRvkO) ~line:3 ~txn:fwd.Msg.txn
       ~payload:(Msg.Data (Array.init 16 (fun i -> 30 + i)))
       ());
  (match Mesi_dir.line_state h.dir ~line:3 with
  | Some (Mesi_dir.D_S sharers) ->
    check_bool "owner + both readers shared" true
      (List.mem 0 sharers && List.mem 1 sharers && List.mem 2 sharers)
  | _ -> Alcotest.fail "expected D_S");
  let r2 = expect ~what:"queued reader served" (msgs h 2) (Msg.Rsp Msg.RspS) in
  check_int "merged data" 35 (List.nth (values r2) 5)

let dir_getm_invalidates_sharers () =
  let h = harness () in
  (* Build D_S {0,1,2}. *)
  gets h ~from:0 ~line:4;
  let fwd = expect ~what:"fwd" (msgs h 0) (Msg.Rsp Msg.RspOdata) in
  ignore fwd;
  clear h;
  gets h ~from:1 ~line:4;
  let f = expect ~what:"fwdgets" (msgs h 0) (Msg.Req Msg.ReqS) in
  ignore
    (send h ~from:0 ~kind:(Msg.Rsp Msg.RspRvkO) ~line:4 ~txn:f.Msg.txn
       ~payload:(Msg.Data (Array.make 16 4))
       ());
  clear h;
  (* Writer 2: invalidate sharers 0 and 1, then grant. *)
  getm h ~from:2 ~line:4;
  let inv0 = expect ~what:"inv 0" (msgs h 0) (Msg.Probe Msg.Inv) in
  let inv1 = expect ~what:"inv 1" (msgs h 1) (Msg.Probe Msg.Inv) in
  expect_no ~what:"blocked until acks" (msgs h 2) (Msg.Rsp Msg.RspOdata);
  ignore (send h ~from:0 ~kind:(Msg.Rsp Msg.Ack) ~line:4 ~txn:inv0.Msg.txn ());
  ignore (send h ~from:1 ~kind:(Msg.Rsp Msg.Ack) ~line:4 ~txn:inv1.Msg.txn ());
  ignore (expect ~what:"granted" (msgs h 2) (Msg.Rsp Msg.RspOdata));
  check_bool "owner 2" true (Mesi_dir.line_state h.dir ~line:4 = Some (Mesi_dir.D_M 2))

let dir_getm_forwards_to_owner () =
  let h = harness () in
  getm h ~from:0 ~line:5;
  clear h;
  getm h ~from:1 ~line:5;
  let fwd = expect ~what:"fwdgetm" (msgs h 0) (Msg.Req Msg.ReqOdata) in
  check_int "req" 1 fwd.Msg.requestor;
  expect_no ~what:"blocked" (msgs h 1) (Msg.Rsp Msg.RspOdata);
  (* Old owner confirms the transfer (data goes directly to the new one). *)
  ignore (send h ~from:0 ~kind:(Msg.Rsp Msg.RspRvkO) ~line:5 ~txn:fwd.Msg.txn ());
  check_bool "transferred" true (Mesi_dir.line_state h.dir ~line:5 = Some (Mesi_dir.D_M 1))

let dir_putm_merges () =
  let h = harness () in
  getm h ~from:0 ~line:6;
  clear h;
  ignore
    (send h ~from:0 ~kind:(Msg.Req Msg.ReqWB) ~line:6
       ~payload:(Msg.Data (Array.init 16 (fun i -> 600 + i)))
       ());
  ignore (expect ~what:"ack" (msgs h 0) (Msg.Rsp Msg.RspWB));
  check_bool "line valid at dir" true
    (Mesi_dir.line_state h.dir ~line:6 = Some Mesi_dir.D_V);
  check_bool "merged" true
    (Mesi_dir.peek_word h.dir (Addr.make ~line:6 ~word:3) = Some 603)

let dir_putm_from_non_owner_dropped () =
  let h = harness () in
  getm h ~from:0 ~line:7;
  getm h ~from:1 ~line:7;
  let fwd = expect ~what:"fwd" (msgs h 0) (Msg.Req Msg.ReqOdata) in
  ignore (send h ~from:0 ~kind:(Msg.Rsp Msg.RspRvkO) ~line:7 ~txn:fwd.Msg.txn ());
  clear h;
  (* Device 0 no longer owns; its stale PutM must not clobber. *)
  ignore
    (send h ~from:0 ~kind:(Msg.Req Msg.ReqWB) ~line:7
       ~payload:(Msg.Data (Array.make 16 666))
       ());
  ignore (expect ~what:"still acked" (msgs h 0) (Msg.Rsp Msg.RspWB));
  check_bool "owner unchanged" true
    (Mesi_dir.line_state h.dir ~line:7 = Some (Mesi_dir.D_M 1))

let dir_crossing_putm_unblocks_fwd () =
  let h = harness () in
  getm h ~from:0 ~line:8;
  clear h;
  gets h ~from:1 ~line:8;
  ignore (expect ~what:"fwd out" (msgs h 0) (Msg.Req Msg.ReqS));
  (* The owner's eviction crossed the forward: its PutM both merges data
     and unblocks the transfer. *)
  ignore
    (send h ~from:0 ~kind:(Msg.Req Msg.ReqWB) ~line:8
       ~payload:(Msg.Data (Array.make 16 88))
       ());
  check_bool "unblocked to shared" true
    (match Mesi_dir.line_state h.dir ~line:8 with
    | Some (Mesi_dir.D_S _) -> true
    | _ -> false);
  check_bool "data merged" true
    (Mesi_dir.peek_word h.dir (Addr.make ~line:8 ~word:0) = Some 88)

let dir_eviction_recalls_owner () =
  let h = harness ~sets:1 ~ways:2 () in
  getm h ~from:0 ~line:1;
  getm h ~from:1 ~line:2;
  clear h;
  (* Line 3 needs a way: the LRU owned line is recalled. *)
  gets h ~from:2 ~line:3;
  let rvko = expect ~what:"recall" (msgs h 0) (Msg.Probe Msg.RvkO) in
  check_int "recalls line 1" 1 rvko.Msg.line;
  expect_no ~what:"requestor waits" (msgs h 2) (Msg.Rsp Msg.RspOdata);
  ignore
    (send h ~from:0 ~kind:(Msg.Rsp Msg.RspRvkO) ~line:1 ~txn:rvko.Msg.txn
       ~payload:(Msg.Data (Array.make 16 11))
       ());
  ignore (expect ~what:"now served" (msgs h 2) (Msg.Rsp Msg.RspOdata));
  check_int "recalled data reached memory" 11
    (Dram.peek_word h.dram (Addr.make ~line:1 ~word:0))

(* --- hierarchical integration: recalls through the GPU L2 ------------------- *)

(* Tiny caches force L2 evictions, dir recalls and client write-backs; the
   stress workload's Checks verify no data is lost through any of it. *)
let hierarchy_recalls_under_pressure () =
  let params =
    {
      Spandex_system.Params.small with
      Spandex_system.Params.cpu_cores = 2;
      gpu_cus = 2;
      warps_per_cu = 2;
      mem_latency = 15;
    }
  in
  let geom = { Spandex_workloads.Microbench.cpus = 2; cus = 2; warps = 2 } in
  List.iter
    (fun seed ->
      let wl =
        Spandex_workloads.Stress.generate
          {
            Spandex_workloads.Stress.default_spec with
            Spandex_workloads.Stress.seed;
            phases = 4;
            (* enough lines to overflow the tiny directory and force
               recalls of L2- and CPU-owned lines. *)
            words = 2048;
          }
          geom
      in
      List.iter
        (fun config ->
          let r = Spandex_system.Run.simulate ~params ~config wl in
          Spandex_system.Run.assert_clean r;
          (* The tiny LLC guarantees the recall machinery actually ran. *)
          if config.Spandex_system.Config.llc = Spandex_system.Config.H_mesi
          then
            check_bool "dir recalls exercised" true
              (Spandex_util.Stats.get r.Spandex_system.Run.stats
                 "mesi_dir.evict_recall"
              > 0))
        [ Spandex_system.Config.hmg; Spandex_system.Config.hmd ])
    [ 1; 2; 3 ]

(* The at-most-once reply cache, armed by any fault plan (here one that
   never fires): a second arrival of a guarded request's txn re-sends the
   recorded responses instead of re-running the transition. *)
let dir_reply_cache_replays_guarded () =
  let h = harness ~fault:(Spandex_net.Fault.uniform ~seed:1 ()) () in
  let txn = send h ~from:0 ~kind:(Msg.Req Msg.ReqOdata) ~line:3 () in
  let first = msgs h 0 in
  ignore (expect ~what:"grant" first (Msg.Rsp Msg.RspOdata));
  let before = Mesi_dir.line_state h.dir ~line:3 in
  clear h;
  ignore (send h ~txn ~from:0 ~kind:(Msg.Req Msg.ReqOdata) ~line:3 ());
  let again = msgs h 0 in
  check_int "same response count" (List.length first) (List.length again);
  check_bool "recorded responses re-sent" true (List.for_all2 ( == ) first again);
  check_int "replayed once" 1
    (Spandex_util.Stats.get (Mesi_dir.bank_stats h.dir 0) "replayed");
  check_bool "state unchanged" true (Mesi_dir.line_state h.dir ~line:3 = before);
  check_bool "still owned by 0" true
    (Mesi_dir.line_state h.dir ~line:3 = Some (Mesi_dir.D_M 0))

let tests =
  [
    test "dir_e_grant_then_fwd_gets" dir_e_grant_then_fwd_gets;
    test "dir_getm_invalidates_sharers" dir_getm_invalidates_sharers;
    test "dir_getm_forwards_to_owner" dir_getm_forwards_to_owner;
    test "dir_putm_merges" dir_putm_merges;
    test "dir_putm_from_non_owner_dropped" dir_putm_from_non_owner_dropped;
    test "dir_crossing_putm_unblocks_fwd" dir_crossing_putm_unblocks_fwd;
    test "dir_eviction_recalls_owner" dir_eviction_recalls_owner;
    test "hierarchy_recalls_under_pressure" hierarchy_recalls_under_pressure;
    test "dir_reply_cache_replays_guarded" dir_reply_cache_replays_guarded;
  ]
