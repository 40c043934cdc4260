(* Second device/LLC behaviour suite: store-buffer pressure, epochs and
   stale fills, release ordering, RMW interactions, and LLC edge cases not
   covered by the Table III/IV suites. *)

module Engine = Spandex_sim.Engine
module Network = Spandex_net.Network
module Msg = Spandex_proto.Msg
module Addr = Spandex_proto.Addr
module Mask = Spandex_util.Mask
module Amo = Spandex_proto.Amo
module State = Spandex_proto.State
module Port = Spandex_device.Port
module Gpu_l1 = Spandex_gpucoh.Gpu_l1
module Denovo_l1 = Spandex_denovo.Denovo_l1
module Mesi_l1 = Spandex_mesi.Mesi_l1

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let dev_id = 0
let llc_id = 10
let peer_id = 5
let w = Mask.singleton
let full = Addr.full_mask
let a line word = Addr.make ~line ~word
let expect = Proto_harness.expect_kind
let expect_no = Proto_harness.expect_no_kind
let values = Proto_harness.payload_list

type h = {
  engine : Engine.t;
  net : Network.t;
  llc_inbox : Msg.t list ref;
  peer_inbox : Msg.t list ref;
}

let harness () =
  Spandex_proto.Txn.reset ();
  let engine = Engine.create () in
  let net = Network.create engine (Network.flat_topology ~latency:2) in
  let llc_inbox = ref [] and peer_inbox = ref [] in
  Network.register net ~id:llc_id (fun m -> llc_inbox := m :: !llc_inbox);
  Network.register net ~id:peer_id (fun m -> peer_inbox := m :: !peer_inbox);
  { engine; net; llc_inbox; peer_inbox }

let run h = ignore (Engine.run_all ~strict:false h.engine)

(* Bounded run for scenarios whose deferred-retry polling only quiesces
   after the test injects a response. *)
let run_until h pred = ignore (Engine.run h.engine ~until_done:pred)

let llc_msgs h = List.rev !(h.llc_inbox)

let clear h =
  h.llc_inbox := [];
  h.peer_inbox := []

let reply h ?payload ~to_:(m : Msg.t) ~kind ?mask ?(from = llc_id) () =
  let mask = Option.value ~default:m.Msg.mask mask in
  Network.send h.net
    (Msg.make ~txn:m.Msg.txn ~kind:(Msg.Rsp kind) ~line:m.Msg.line ~mask
       ?payload ~src:from ~dst:dev_id ());
  run h

let mk_gpu ?(sb_capacity = 2) h =
  Gpu_l1.create ~name:"gpu_l1.0" h.engine h.net
    { Gpu_l1.id = dev_id; llc_id; llc_banks = 1; sets = 4; ways = 2; mshrs = 8;
      sb_capacity; hit_latency = 1; coalesce_window = 2; max_reqv_retries = 1 }

let mk_denovo h =
  Denovo_l1.create ~name:"denovo_l1.0" h.engine h.net
    { Denovo_l1.id = dev_id; llc_id; llc_banks = 1; sets = 4; ways = 2;
      mshrs = 8; sb_capacity = 4; hit_latency = 1; coalesce_window = 2;
      max_reqv_retries = 1; atomics_at_llc = false; region_of = (fun _ -> 0);
      policy = Spandex_l1.Spandex_policy.Static_own }

(* --- GPU store-buffer pressure -------------------------------------------------- *)

let gpu_sb_pressure_stalls_and_recovers () =
  let h = harness () in
  let l1 = mk_gpu ~sb_capacity:2 h in
  let port = Gpu_l1.port l1 in
  let accepted = ref 0 in
  (* Three stores to distinct lines against a 2-entry buffer: the third
     finds it full and stalls until the drain frees an entry. *)
  for i = 0 to 2 do
    port.Port.store (a (20 + i) 0) ~value:i ~k:(fun () -> incr accepted)
  done;
  run h;
  check_bool "full buffer stalled a store" true
    (Spandex_util.Stats.get (Gpu_l1.stats l1) "sb_full_stall" >= 1);
  check_int "all recovered after drains" 3 !accepted;
  (* The three write-throughs eventually reach the LLC. *)
  let wts =
    List.filter (fun (m : Msg.t) -> m.Msg.kind = Msg.Req Msg.ReqWT) (llc_msgs h)
  in
  check_int "all entries drained" 3 (List.length wts);
  List.iter (fun m -> reply h ~to_:m ~kind:Msg.RspWT ()) wts;
  let flushed = ref false in
  port.Port.release ~k:(fun () -> flushed := true);
  run h;
  check_bool "quiesces" true !flushed

let gpu_stale_fill_not_cached_across_acquire () =
  let h = harness () in
  let l1 = mk_gpu h in
  let port = Gpu_l1.port l1 in
  let got = ref None in
  port.Port.load (a 2 0) ~k:(fun v -> got := Some v);
  run h;
  let m = expect ~what:"miss" (llc_msgs h) (Msg.Req Msg.ReqV) in
  (* An acquire fires while the fill is outstanding. *)
  port.Port.acquire ~k:(fun () -> ());
  run h;
  reply h ~to_:m ~kind:Msg.RspV ~payload:(Msg.Data (Array.make 16 7)) ();
  (* The demanded load still completes (its value predates the acquire in
     program order)... *)
  check_int "load value delivered" 7 (Option.get !got);
  (* ...but the fill must NOT be cached: its other words may predate the
     synchronization. *)
  check_int "stale fill dropped" 0 (Gpu_l1.valid_lines l1)

let gpu_rmw_invalidates_cached_line () =
  let h = harness () in
  let l1 = mk_gpu h in
  let port = Gpu_l1.port l1 in
  port.Port.load (a 2 0) ~k:(fun _ -> ());
  run h;
  reply h
    ~to_:(expect ~what:"fill" (llc_msgs h) (Msg.Req Msg.ReqV))
    ~kind:Msg.RspV
    ~payload:(Msg.Data (Array.make 16 1))
    ();
  check_int "cached" 1 (Gpu_l1.valid_lines l1);
  clear h;
  (* The RspWT+data's return value makes the cached line stale (III-A). *)
  port.Port.rmw (a 2 3) (Amo.Add 1) ~k:(fun _ -> ());
  run h;
  reply h
    ~to_:(expect ~what:"atomic" (llc_msgs h) (Msg.Req Msg.ReqWTdata))
    ~kind:Msg.RspWTdata
    ~payload:(Msg.Data [| 1 |])
    ();
  check_int "line invalidated by the atomic" 0 (Gpu_l1.valid_lines l1)

let gpu_release_blocks_on_outstanding_wt () =
  let h = harness () in
  let l1 = mk_gpu h in
  let port = Gpu_l1.port l1 in
  port.Port.store (a 3 0) ~value:1 ~k:(fun () -> ());
  let released = ref false in
  port.Port.release ~k:(fun () -> released := true);
  run h;
  let m1 = expect ~what:"wt" (llc_msgs h) (Msg.Req Msg.ReqWT) in
  check_bool "release pending" false !released;
  (* Another store while flushing joins the flush. *)
  port.Port.store (a 4 0) ~value:2 ~k:(fun () -> ());
  run h;
  reply h ~to_:m1 ~kind:Msg.RspWT ();
  check_bool "still pending (second WT outstanding)" false !released;
  let m2 =
    List.find
      (fun (m : Msg.t) -> m.Msg.kind = Msg.Req Msg.ReqWT && m.Msg.line = 4)
      (llc_msgs h)
  in
  reply h ~to_:m2 ~kind:Msg.RspWT ();
  check_bool "released once empty" true !released

(* --- DeNovo: reads, epochs, stalls ---------------------------------------------- *)

let denovo_nack_retry_then_convert () =
  let h = harness () in
  let l1 = mk_denovo h in
  let port = Denovo_l1.port l1 in
  let got = ref None in
  port.Port.load (a 2 3) ~k:(fun v -> got := Some v);
  run h;
  let m1 = expect ~what:"reqv" (llc_msgs h) (Msg.Req Msg.ReqV) in
  clear h;
  reply h ~to_:m1 ~kind:Msg.Nack ~mask:(w 3) ~from:peer_id ();
  let m2 = expect ~what:"retried" (llc_msgs h) (Msg.Req Msg.ReqV) in
  check_bool "demands the word" true (Mask.equal m2.Msg.demand (w 3));
  clear h;
  reply h ~to_:m2 ~kind:Msg.Nack ~mask:(w 3) ~from:peer_id ();
  (* DeNovo converts to ReqO+data (III-C: "a ReqWT+data or ReqO+data"). *)
  let m3 = expect ~what:"converted" (llc_msgs h) (Msg.Req Msg.ReqOdata) in
  reply h ~to_:m3 ~kind:Msg.RspOdata ~payload:(Msg.Data [| 99 |]) ();
  check_int "finally served" 99 (Option.get !got);
  check_bool "converted read owns the word" true
    (Denovo_l1.word_state l1 (a 2 3) = State.O)

let denovo_stale_opportunistic_fill_dropped () =
  let h = harness () in
  let l1 = mk_denovo h in
  let port = Denovo_l1.port l1 in
  let got = ref None in
  port.Port.load (a 2 3) ~k:(fun v -> got := Some v);
  run h;
  let m = expect ~what:"reqv" (llc_msgs h) (Msg.Req Msg.ReqV) in
  port.Port.acquire ~k:(fun () -> ());
  run h;
  reply h ~to_:m ~kind:Msg.RspV ~payload:(Msg.Data (Array.init 16 (fun i -> i))) ();
  check_int "demanded word served" 3 (Option.get !got);
  check_bool "opportunistic words not installed after acquire" true
    (Denovo_l1.word_state l1 (a 2 9) = State.I)

let denovo_load_defers_behind_same_word_rmw () =
  let h = harness () in
  let l1 = mk_denovo h in
  ignore l1;
  let port = Denovo_l1.port l1 in
  let rmw_done = ref None and load_done = ref None in
  port.Port.rmw (a 6 2) (Amo.Add 5) ~k:(fun v -> rmw_done := Some v);
  run_until h (fun () -> llc_msgs h <> []);
  (* A second context reads the same word mid-grant: it must wait and then
     observe the post-RMW value locally. *)
  port.Port.load (a 6 2) ~k:(fun v -> load_done := Some v);
  check_bool "load deferred" true (!load_done = None);
  let m = expect ~what:"grant" (llc_msgs h) (Msg.Req Msg.ReqOdata) in
  reply h ~to_:m ~kind:Msg.RspOdata ~payload:(Msg.Data [| 10 |]) ();
  check_int "rmw old value" 10 (Option.get !rmw_done);
  check_int "load sees post-rmw value" 15 (Option.get !load_done)

let denovo_sb_full_stalls () =
  let h = harness () in
  let l1 = mk_denovo h in
  let port = Denovo_l1.port l1 in
  let accepted = ref 0 in
  for i = 0 to 4 do
    port.Port.store (a (30 + i) 0) ~value:i ~k:(fun () -> incr accepted)
  done;
  run h;
  check_bool "full buffer stalled a store" true
    (Spandex_util.Stats.get (Denovo_l1.stats l1) "sb_full_stall" >= 1);
  check_int "all recovered after drains" 5 !accepted;
  let reqs =
    List.filter (fun (m : Msg.t) -> m.Msg.kind = Msg.Req Msg.ReqO) (llc_msgs h)
  in
  check_int "five ownership requests" 5 (List.length reqs);
  List.iter (fun m -> reply h ~to_:m ~kind:Msg.RspO ()) reqs;
  check_bool "all owned" true
    (Denovo_l1.owned_words l1 = 5)

(* --- MESI: RMW ordering and upgrade behaviour ------------------------------------ *)

let mesi_rmw_waits_for_same_line_store () =
  let h = harness () in
  let l1 = Mesi_l1.create ~name:"mesi_l1.0" h.engine h.net
      { Mesi_l1.id = dev_id; llc_id; llc_banks = 1; sets = 4; ways = 2;
        mshrs = 8; sb_capacity = 8; hit_latency = 1; coalesce_window = 50;
        notify_home_on_fwd_getm = false }
  in
  let port = Mesi_l1.port l1 in
  (* A store parks in the buffer (long coalesce window); the RMW to the
     same line must force it out first and observe it. *)
  port.Port.store (a 7 0) ~value:70 ~k:(fun () -> ());
  let got = ref None in
  port.Port.rmw (a 7 0) (Amo.Add 1) ~k:(fun v -> got := Some v);
  run_until h (fun () -> llc_msgs h <> []);
  let m = expect ~what:"forced rfo" (llc_msgs h) (Msg.Req Msg.ReqOdata) in
  reply h ~to_:m ~kind:Msg.RspOdata ~payload:(Msg.Data (Array.make 16 0)) ();
  check_int "rmw saw the buffered store" 70 (Option.get !got);
  check_bool "final value" true (Mesi_l1.peek_word l1 (a 7 0) = Some 71)

let mesi_load_waits_on_pending_write () =
  (* A load beside a pending same-line write must NOT issue its own ReqS
     (the two would race at the LLC and one would be granted data-less);
     it is served from the write's grant. *)
  let h = harness () in
  let l1 = Mesi_l1.create ~name:"mesi_l1.0" h.engine h.net
      { Mesi_l1.id = dev_id; llc_id; llc_banks = 1; sets = 4; ways = 2;
        mshrs = 8; sb_capacity = 8; hit_latency = 1; coalesce_window = 1;
        notify_home_on_fwd_getm = false }
  in
  let port = Mesi_l1.port l1 in
  port.Port.store (a 9 0) ~value:90 ~k:(fun () -> ());
  run_until h (fun () -> llc_msgs h <> []);
  let rfo = expect ~what:"write miss" (llc_msgs h) (Msg.Req Msg.ReqOdata) in
  clear h;
  let got = ref None in
  port.Port.load (a 9 5) ~k:(fun v -> got := Some v);
  run h;
  check_bool "no separate read request" true (llc_msgs h = []);
  check_bool "load parked" true (!got = None);
  reply h ~to_:rfo ~kind:Msg.RspOdata ~payload:(Msg.Data (Array.make 16 3)) ();
  check_int "served from the grant" 3 (Option.get !got)

let mesi_store_misses_coalesce_whole_line () =
  let h = harness () in
  let l1 = Mesi_l1.create ~name:"mesi_l1.0" h.engine h.net
      { Mesi_l1.id = dev_id; llc_id; llc_banks = 1; sets = 4; ways = 2;
        mshrs = 8; sb_capacity = 8; hit_latency = 1; coalesce_window = 4;
        notify_home_on_fwd_getm = false }
  in
  let port = Mesi_l1.port l1 in
  port.Port.store (a 8 0) ~value:1 ~k:(fun () -> ());
  port.Port.store (a 8 9) ~value:2 ~k:(fun () -> ());
  port.Port.release ~k:(fun () -> ());
  run h;
  (* One RfO for both buffered words. *)
  let rfos =
    List.filter (fun (m : Msg.t) -> m.Msg.kind = Msg.Req Msg.ReqOdata) (llc_msgs h)
  in
  check_int "single miss" 1 (List.length rfos);
  reply h ~to_:(List.hd rfos) ~kind:Msg.RspOdata
    ~payload:(Msg.Data (Array.make 16 0)) ();
  check_bool "both applied" true
    (Mesi_l1.peek_word l1 (a 8 0) = Some 1 && Mesi_l1.peek_word l1 (a 8 9) = Some 2)

(* --- LLC edge cases ---------------------------------------------------------------- *)

let llc_plain_remote_write_without_amo () =
  (* ReqWT+data with values and no atomic op: a remote write returning the
     pre-update data (the paper's byte-store escape hatch). *)
  let open Proto_harness in
  let t = setup () in
  ignore
    (req t ~from:0 ~kind:Msg.ReqWTdata ~line:6 ~mask:(Mask.singleton 4)
       ~payload:(Msg.Data [| 1234 |])
       ());
  let rsp = expect_kind ~what:"old data" (inbox t 0) (Msg.Rsp Msg.RspWTdata) in
  check_int "pre-update value returned" (init_word ~line:6 ~word:4)
    (List.hd (payload_list rsp));
  check_bool "updated" true
    (Spandex.Llc.peek_word t.llc (Addr.make ~line:6 ~word:4) = Some 1234)

let llc_writer_keeps_its_shared_copy () =
  (* A sharer's own write must not invalidate the writer itself. *)
  let open Proto_harness in
  let t = setup ~is_mesi:(fun _ -> true) () in
  ignore (req t ~from:0 ~kind:Msg.ReqOdata ~line:9 ~mask:Addr.full_mask ());
  clear_inboxes t;
  let _ = req t ~from:1 ~kind:Msg.ReqS ~line:9 ~mask:Addr.full_mask () in
  let fwd = expect_kind ~what:"fwd" (inbox t 0) (Msg.Req Msg.ReqS) in
  rsp t ~from:0 ~kind:Msg.RspRvkO ~line:9 ~mask:Addr.full_mask
    ~payload:(Msg.Data (Array.make 16 0)) ~txn:fwd.Msg.txn ();
  clear_inboxes t;
  (* Sharer 1 writes: only sharer 0 gets an Inv. *)
  ignore
    (req t ~from:1 ~kind:Msg.ReqWT ~line:9 ~mask:(Mask.singleton 0)
       ~payload:(Msg.Data [| 5 |]) ());
  ignore (expect_kind ~what:"inv to the other sharer" (inbox t 0) (Msg.Probe Msg.Inv));
  expect_no ~what:"writer not invalidated" (inbox t 1) (Msg.Probe Msg.Inv);
  rsp t ~from:0 ~kind:Msg.Ack ~line:9 ~mask:Addr.full_mask ();
  ignore (expect_kind ~what:"write done" (inbox t 1) (Msg.Rsp Msg.RspWT))

let llc_dirty_eviction_after_wb_merge () =
  let open Proto_harness in
  let t = setup ~sets:1 ~ways:2 () in
  (* Own then write back line 1 (making the LLC's copy dirty)... *)
  ignore (req t ~from:0 ~kind:Msg.ReqO ~line:1 ~mask:(Mask.singleton 0) ());
  ignore
    (req t ~from:0 ~kind:Msg.ReqWB ~line:1 ~mask:(Mask.singleton 0)
       ~payload:(Msg.Data [| 321 |]) ());
  (* ...then force its eviction and check memory. *)
  ignore (req t ~from:0 ~kind:Msg.ReqV ~line:2 ~mask:Addr.full_mask ());
  ignore (req t ~from:0 ~kind:Msg.ReqV ~line:3 ~mask:Addr.full_mask ());
  check_int "merged write-back reached memory" 321
    (Spandex_mem.Dram.peek_word t.dram (Addr.make ~line:1 ~word:0))

let core_barrier_is_release_acquire () =
  (* The core must perform Release before arriving and Acquire after. *)
  let e = Engine.create () in
  let log = ref [] in
  let port =
    {
      Port.load = (fun _ ~k -> Engine.schedule e ~delay:1 (fun () -> k 0));
      store = (fun _ ~value:_ ~k -> Engine.schedule e ~delay:1 k);
      rmw = (fun _ _ ~k -> Engine.schedule e ~delay:1 (fun () -> k 0));
      acquire =
        (fun ~k ->
          log := `Acquire :: !log;
          Engine.schedule e ~delay:1 k);
      acquire_region = (fun ~region:_ ~k -> Engine.schedule e ~delay:1 k);
      release =
        (fun ~k ->
          log := `Release :: !log;
          Engine.schedule e ~delay:1 k);
    }
  in
  let check_log = Spandex_device.Check_log.create () in
  let barriers = [| Spandex_device.Barrier.create e ~parties:1 |] in
  let core =
    Spandex_device.Core.create e ~port ~barriers ~check_log ~core_id:0 ~clock:1
      ~programs:[| Spandex_device.Program.of_ops [| Spandex_device.Ops.Barrier 0 |] |]
  in
  Spandex_device.Core.start core;
  ignore
    (Engine.run e
       ~until_done:(fun () -> Spandex_device.Core.finished core));
  Alcotest.(check (list string))
    "release before acquire"
    [ "release"; "acquire" ]
    (List.rev_map (function `Release -> "release" | `Acquire -> "acquire") !log)

let tests =
  [
    test "gpu_sb_pressure_stalls_and_recovers" gpu_sb_pressure_stalls_and_recovers;
    test "gpu_stale_fill_not_cached_across_acquire" gpu_stale_fill_not_cached_across_acquire;
    test "gpu_rmw_invalidates_cached_line" gpu_rmw_invalidates_cached_line;
    test "gpu_release_blocks_on_outstanding_wt" gpu_release_blocks_on_outstanding_wt;
    test "denovo_nack_retry_then_convert" denovo_nack_retry_then_convert;
    test "denovo_stale_opportunistic_fill_dropped" denovo_stale_opportunistic_fill_dropped;
    test "denovo_load_defers_behind_same_word_rmw" denovo_load_defers_behind_same_word_rmw;
    test "denovo_sb_full_stalls" denovo_sb_full_stalls;
    test "mesi_rmw_waits_for_same_line_store" mesi_rmw_waits_for_same_line_store;
    test "mesi_load_waits_on_pending_write" mesi_load_waits_on_pending_write;
    test "mesi_store_misses_coalesce_whole_line" mesi_store_misses_coalesce_whole_line;
    test "llc_plain_remote_write_without_amo" llc_plain_remote_write_without_amo;
    test "llc_writer_keeps_its_shared_copy" llc_writer_keeps_its_shared_copy;
    test "llc_dirty_eviction_after_wb_merge" llc_dirty_eviction_after_wb_merge;
    test "core_barrier_is_release_acquire" core_barrier_is_release_acquire;
  ]
