(* Device-cache unit tests: request generation (Table II), external-request
   handling (Table IV), and the III-C/III-D race behaviours, with a
   scripted LLC endpoint. *)

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
let llc_msgs h = List.rev !(h.llc_inbox)
let peer_msgs h = List.rev !(h.peer_inbox)

let clear h =
  h.llc_inbox := [];
  h.peer_inbox := []

let expect = Proto_harness.expect_kind
let expect_no = Proto_harness.expect_no_kind
let values = Proto_harness.payload_list

(* Answer the device's last request with a response echoing its txn. *)
let reply h ?payload ~to_:(m : Msg.t) ~kind ?mask ?(from = llc_id) () =
  let mask = Option.value ~default:m.Msg.mask mask in
  Network.send h.net
    (Msg.make ~txn:m.Msg.txn ~kind:(Msg.Rsp kind) ~line:m.Msg.line ~mask
       ?payload ~src:from ~dst:dev_id ());
  run h

(* Inject an external (forwarded request or probe) into the device. *)
let inject h ~kind ~line ~mask ?demand ?(requestor = peer_id) () =
  Network.send h.net
    (Msg.make ~txn:(Spandex_proto.Txn.fresh ()) ~kind ~line ~mask ?demand
       ~src:llc_id ~dst:dev_id ~requestor ~fwd:true ());
  run h

let mk_gpu h =
  Gpu_l1.create ~name:"gpu_l1.0" h.engine h.net
    { Gpu_l1.id = dev_id; llc_id; llc_banks = 1; sets = 4; ways = 2; mshrs = 8;
      sb_capacity = 8; hit_latency = 1; coalesce_window = 2; max_reqv_retries = 1 }

let mk_denovo ?(atomics_at_llc = false) h =
  Denovo_l1.create ~name:"denovo_l1.0" h.engine h.net
    { Denovo_l1.id = dev_id; llc_id; llc_banks = 1; sets = 4; ways = 2;
      mshrs = 8; sb_capacity = 8; hit_latency = 1; coalesce_window = 2;
      max_reqv_retries = 1; atomics_at_llc; region_of = (fun _ -> 0);
      policy = Spandex_l1.Spandex_policy.Static_own }

let mk_mesi ?(notify = false) h =
  Mesi_l1.create ~name:"mesi_l1.0" h.engine h.net
    { Mesi_l1.id = dev_id; llc_id; llc_banks = 1; sets = 4; ways = 2; mshrs = 8;
      sb_capacity = 8; hit_latency = 1; coalesce_window = 2;
      notify_home_on_fwd_getm = notify }

let a line word = Addr.make ~line ~word

(* ===== GPU coherence ========================================================= *)

let gpu_read_miss_line_reqv () =
  let h = harness () in
  let l1 = mk_gpu h in
  let port = Gpu_l1.port l1 in
  let got = ref None in
  port.Port.load (a 2 3) ~k:(fun v -> got := Some v);
  run h;
  let m = expect ~what:"line read" (llc_msgs h) (Msg.Req Msg.ReqV) in
  check_bool "line granularity (Table II)" true (Mask.equal m.Msg.mask full);
  reply h ~to_:m ~kind:Msg.RspV
    ~payload:(Msg.Data (Array.init 16 (fun i -> 50 + i)))
    ();
  check_int "value delivered" 53 (Option.get !got);
  (* Subsequent read of another word in the line hits. *)
  clear h;
  port.Port.load (a 2 9) ~k:(fun v -> got := Some v);
  run h;
  check_int "hit after fill" 59 (Option.get !got);
  expect_no ~what:"no second request" (llc_msgs h) (Msg.Req Msg.ReqV)

let gpu_store_writes_through_word () =
  let h = harness () in
  let l1 = mk_gpu h in
  let port = Gpu_l1.port l1 in
  port.Port.store (a 3 1) ~value:11 ~k:(fun () -> ());
  port.Port.store (a 3 2) ~value:22 ~k:(fun () -> ());
  let released = ref false in
  port.Port.release ~k:(fun () -> released := true);
  run h;
  let m = expect ~what:"coalesced WT" (llc_msgs h) (Msg.Req Msg.ReqWT) in
  check_bool "word granularity, coalesced" true
    (Mask.equal m.Msg.mask (Mask.of_list [ 1; 2 ]));
  Alcotest.(check (list int)) "values" [ 11; 22 ] (values m);
  check_bool "release waits for ack" false !released;
  reply h ~to_:m ~kind:Msg.RspWT ();
  check_bool "release completes" true !released

let gpu_rmw_bypasses_l1 () =
  let h = harness () in
  let l1 = mk_gpu h in
  let port = Gpu_l1.port l1 in
  let got = ref None in
  port.Port.rmw (a 4 0) (Amo.Add 2) ~k:(fun v -> got := Some v);
  run h;
  let m = expect ~what:"atomic at LLC" (llc_msgs h) (Msg.Req Msg.ReqWTdata) in
  check_bool "carries the op" true (m.Msg.amo = Some (Amo.Add 2));
  reply h ~to_:m ~kind:Msg.RspWTdata ~payload:(Msg.Data [| 40 |]) ();
  check_int "old value" 40 (Option.get !got)

let gpu_acquire_flash_invalidates () =
  let h = harness () in
  let l1 = mk_gpu h in
  let port = Gpu_l1.port l1 in
  port.Port.load (a 2 0) ~k:(fun _ -> ());
  run h;
  let m = expect ~what:"fill" (llc_msgs h) (Msg.Req Msg.ReqV) in
  reply h ~to_:m ~kind:Msg.RspV ~payload:(Msg.Data (Array.make 16 1)) ();
  check_int "one valid line" 1 (Gpu_l1.valid_lines l1);
  let done_ = ref false in
  port.Port.acquire ~k:(fun () -> done_ := true);
  run h;
  check_bool "acquire done" true !done_;
  check_int "flash invalidated" 0 (Gpu_l1.valid_lines l1)

let gpu_nack_retry_then_convert () =
  let h = harness () in
  let l1 = mk_gpu h in
  let port = Gpu_l1.port l1 in
  port.Port.load (a 2 7) ~k:(fun _ -> ());
  run h;
  let m1 = expect ~what:"first try" (llc_msgs h) (Msg.Req Msg.ReqV) in
  clear h;
  (* Owner Nacks the demanded word but the LLC supplied the rest. *)
  reply h ~to_:m1 ~kind:Msg.RspV ~mask:(Mask.diff full (w 7))
    ~payload:(Msg.Data (Array.make 15 3))
    ();
  reply h ~to_:m1 ~kind:Msg.Nack ~mask:(w 7) ~from:peer_id ();
  let m2 = expect ~what:"retried as ReqV" (llc_msgs h) (Msg.Req Msg.ReqV) in
  check_bool "retry only the nacked word" true (Mask.equal m2.Msg.mask (w 7));
  clear h;
  reply h ~to_:m2 ~kind:Msg.Nack ~mask:(w 7) ~from:peer_id ();
  (* After max_reqv_retries the TU converts to an ordered request. *)
  let m3 = expect ~what:"converted" (llc_msgs h) (Msg.Req Msg.ReqWTdata) in
  check_bool "atomic read" true (m3.Msg.amo = Some Amo.Read)

let gpu_inv_acked_silently () =
  let h = harness () in
  let l1 = mk_gpu h in
  ignore (Gpu_l1.port l1);
  inject h ~kind:(Msg.Probe Msg.Inv) ~line:6 ~mask:full ();
  ignore (expect ~what:"ack" (llc_msgs h) (Msg.Rsp Msg.Ack))

(* ===== DeNovo ================================================================ *)

let denovo_read_word_demand_line_fill () =
  let h = harness () in
  let l1 = mk_denovo h in
  let port = Denovo_l1.port l1 in
  let got = ref None in
  port.Port.load (a 2 5) ~k:(fun v -> got := Some v);
  run h;
  let m = expect ~what:"reqv" (llc_msgs h) (Msg.Req Msg.ReqV) in
  check_bool "demands only the word" true (Mask.equal m.Msg.demand (w 5));
  check_bool "asks for the whole line" true (Mask.equal m.Msg.mask full);
  reply h ~to_:m ~kind:Msg.RspV ~payload:(Msg.Data (Array.init 16 (fun i -> i))) ();
  check_int "value" 5 (Option.get !got);
  check_bool "opportunistic words valid" true
    (Denovo_l1.word_state l1 (a 2 11) = State.V)

let denovo_store_reqo_no_data () =
  let h = harness () in
  let l1 = mk_denovo h in
  let port = Denovo_l1.port l1 in
  port.Port.store (a 3 4) ~value:44 ~k:(fun () -> ());
  let flushed = ref false in
  port.Port.release ~k:(fun () -> flushed := true);
  run h;
  let m = expect ~what:"ownership" (llc_msgs h) (Msg.Req Msg.ReqO) in
  check_bool "no payload (data-less)" true (values m = []);
  check_bool "word granularity" true (Mask.equal m.Msg.mask (w 4));
  reply h ~to_:m ~kind:Msg.RspO ();
  check_bool "release done" true !flushed;
  check_bool "owned locally" true (Denovo_l1.word_state l1 (a 3 4) = State.O);
  let got = ref None in
  port.Port.load (a 3 4) ~k:(fun v -> got := Some v);
  run h;
  check_int "owned hit returns store value" 44 (Option.get !got)

let denovo_rmw_local_with_ownership () =
  let h = harness () in
  let l1 = mk_denovo h in
  let port = Denovo_l1.port l1 in
  let got = ref None in
  port.Port.rmw (a 4 2) (Amo.Add 3) ~k:(fun v -> got := Some v);
  run h;
  let m = expect ~what:"reqodata" (llc_msgs h) (Msg.Req Msg.ReqOdata) in
  reply h ~to_:m ~kind:Msg.RspOdata ~payload:(Msg.Data [| 10 |]) ();
  check_int "old" 10 (Option.get !got);
  check_bool "kept owned" true (Denovo_l1.word_state l1 (a 4 2) = State.O);
  (* Second RMW hits locally with no traffic. *)
  clear h;
  port.Port.rmw (a 4 2) (Amo.Add 1) ~k:(fun v -> got := Some v);
  run h;
  check_int "local old value" 13 (Option.get !got);
  check_bool "no message" true (llc_msgs h = [])

let denovo_rmw_at_llc_mode () =
  let h = harness () in
  let l1 = mk_denovo ~atomics_at_llc:true h in
  let port = Denovo_l1.port l1 in
  port.Port.rmw (a 4 2) (Amo.Add 3) ~k:(fun _ -> ());
  run h;
  let m = expect ~what:"SDG-style atomic" (llc_msgs h) (Msg.Req Msg.ReqWTdata) in
  reply h ~to_:m ~kind:Msg.RspWTdata ~payload:(Msg.Data [| 1 |]) ();
  check_bool "not owned afterwards" true (Denovo_l1.word_state l1 (a 4 2) = State.I)

let denovo_acquire_keeps_owned () =
  let h = harness () in
  let l1 = mk_denovo h in
  let port = Denovo_l1.port l1 in
  (* Gain one owned and one valid word. *)
  port.Port.store (a 5 0) ~value:1 ~k:(fun () -> ());
  port.Port.release ~k:(fun () -> ());
  run h;
  reply h ~to_:(expect ~what:"o" (llc_msgs h) (Msg.Req Msg.ReqO)) ~kind:Msg.RspO ();
  clear h;
  port.Port.load (a 5 9) ~k:(fun _ -> ());
  run h;
  let m = expect ~what:"v" (llc_msgs h) (Msg.Req Msg.ReqV) in
  reply h ~to_:m ~kind:Msg.RspV
    ~payload:(Msg.Data (Array.make (Mask.count m.Msg.mask) 9))
    ();
  check_bool "valid" true (Denovo_l1.word_state l1 (a 5 9) = State.V);
  port.Port.acquire ~k:(fun () -> ());
  run h;
  check_bool "V flashed" true (Denovo_l1.word_state l1 (a 5 9) = State.I);
  check_bool "O survives (paper II-C)" true (Denovo_l1.word_state l1 (a 5 0) = State.O)

let denovo_external_table_iv () =
  let h = harness () in
  let l1 = mk_denovo h in
  let port = Denovo_l1.port l1 in
  (* Own words 0 and 1 of line 6. *)
  port.Port.store (a 6 0) ~value:100 ~k:(fun () -> ());
  port.Port.store (a 6 1) ~value:101 ~k:(fun () -> ());
  port.Port.release ~k:(fun () -> ());
  run h;
  reply h ~to_:(expect ~what:"grant" (llc_msgs h) (Msg.Req Msg.ReqO)) ~kind:Msg.RspO ();
  clear h;
  (* fwd ReqV: serve data, stay Owned. *)
  inject h ~kind:(Msg.Req Msg.ReqV) ~line:6 ~mask:(w 0) ();
  let rv = expect ~what:"rspv direct" (peer_msgs h) (Msg.Rsp Msg.RspV) in
  Alcotest.(check (list int)) "data" [ 100 ] (values rv);
  check_bool "still owned" true (Denovo_l1.word_state l1 (a 6 0) = State.O);
  clear h;
  (* fwd ReqO: downgrade, ack requestor, no data. *)
  inject h ~kind:(Msg.Req Msg.ReqO) ~line:6 ~mask:(w 0) ();
  let ro = expect ~what:"rspo direct" (peer_msgs h) (Msg.Rsp Msg.RspO) in
  check_bool "no data" true (values ro = []);
  check_bool "downgraded" true (Denovo_l1.word_state l1 (a 6 0) = State.I);
  clear h;
  (* RvkO: write data back to the LLC, downgrade. *)
  inject h ~kind:(Msg.Probe Msg.RvkO) ~line:6 ~mask:(w 1) ();
  let rr = expect ~what:"rsprvko" (llc_msgs h) (Msg.Rsp Msg.RspRvkO) in
  Alcotest.(check (list int)) "wb data" [ 101 ] (values rr);
  check_bool "downgraded too" true (Denovo_l1.word_state l1 (a 6 1) = State.I);
  clear h;
  (* fwd ReqV for a word no longer owned: Nack the demand. *)
  inject h ~kind:(Msg.Req Msg.ReqV) ~line:6 ~mask:(w 0) ~demand:(w 0) ();
  ignore (expect ~what:"nack" (peer_msgs h) (Msg.Rsp Msg.Nack));
  (* Inv in a non-S state: silently acknowledged. *)
  clear h;
  inject h ~kind:(Msg.Probe Msg.Inv) ~line:6 ~mask:full ();
  ignore (expect ~what:"ack" (llc_msgs h) (Msg.Rsp Msg.Ack))

let denovo_fwd_reqs_surrenders_data () =
  let h = harness () in
  let l1 = mk_denovo h in
  let port = Denovo_l1.port l1 in
  port.Port.store (a 7 2) ~value:7 ~k:(fun () -> ());
  port.Port.release ~k:(fun () -> ());
  run h;
  reply h ~to_:(expect ~what:"grant" (llc_msgs h) (Msg.Req Msg.ReqO)) ~kind:Msg.RspO ();
  clear h;
  inject h ~kind:(Msg.Req Msg.ReqS) ~line:7 ~mask:(w 2) ();
  (* No Shared state in DeNovo: data to both, down to Invalid. *)
  ignore (expect ~what:"data to reader" (peer_msgs h) (Msg.Rsp Msg.RspS));
  ignore (expect ~what:"wb copy to LLC" (llc_msgs h) (Msg.Rsp Msg.RspRvkO));
  check_bool "invalid" true (Denovo_l1.word_state l1 (a 7 2) = State.I)

let denovo_eviction_wb_serves_externals () =
  let h = harness () in
  let l1 = mk_denovo h in
  let port = Denovo_l1.port l1 in
  (* sets=4: lines 8, 12, 16 conflict (set 0) with ways=2. *)
  let own line v =
    port.Port.store (a line 0) ~value:v ~k:(fun () -> ());
    port.Port.release ~k:(fun () -> ());
    run h;
    let m = expect ~what:"own" (llc_msgs h) (Msg.Req Msg.ReqO) in
    clear h;
    reply h ~to_:m ~kind:Msg.RspO ()
  in
  own 8 80;
  own 12 120;
  (* Granting line 16 commits it and evicts the LRU owned line, whose data
     leaves in a ReqWB. *)
  own 16 160;
  let wb = expect ~what:"eviction wb" (llc_msgs h) (Msg.Req Msg.ReqWB) in
  let evicted_line = wb.Msg.line in
  let expected_value = if evicted_line = 8 then 80 else 120 in
  Alcotest.(check (list int)) "wb payload" [ expected_value ] (values wb);
  clear h;
  (* A forwarded read for the in-flight word is served from the record. *)
  inject h ~kind:(Msg.Req Msg.ReqV) ~line:evicted_line ~mask:(w 0) ();
  let rv = expect ~what:"served from wb record" (peer_msgs h) (Msg.Rsp Msg.RspV) in
  Alcotest.(check (list int)) "retained data" [ expected_value ] (values rv);
  (* Local loads also forward from the record. *)
  let got = ref None in
  port.Port.load (a evicted_line 0) ~k:(fun v -> got := Some v);
  run h;
  check_int "local wb forward" expected_value (Option.get !got);
  reply h ~to_:wb ~kind:Msg.RspWB ()

let denovo_steal_mid_own_grant () =
  (* III-C case 1: a data-less fwd ReqO for a word whose own ReqO grant is
     incomplete is answered immediately, and the word is not kept. *)
  let h = harness () in
  let l1 = mk_denovo h in
  let port = Denovo_l1.port l1 in
  port.Port.store (a 9 3) ~value:93 ~k:(fun () -> ());
  port.Port.release ~k:(fun () -> ());
  run h;
  let grant = expect ~what:"own req" (llc_msgs h) (Msg.Req Msg.ReqO) in
  clear h;
  (* The steal arrives before the grant response. *)
  inject h ~kind:(Msg.Req Msg.ReqO) ~line:9 ~mask:(w 3) ();
  ignore (expect ~what:"immediate ack" (peer_msgs h) (Msg.Rsp Msg.RspO));
  reply h ~to_:grant ~kind:Msg.RspO ();
  check_bool "stolen word not kept" true (Denovo_l1.word_state l1 (a 9 3) = State.I)

let denovo_data_request_mid_rmw_delayed () =
  (* III-C case 1: externals needing data wait for a pending ReqO+data. *)
  let h = harness () in
  let l1 = mk_denovo h in
  let port = Denovo_l1.port l1 in
  ignore l1;
  let got = ref None in
  port.Port.rmw (a 10 1) (Amo.Add 1) ~k:(fun v -> got := Some v);
  run h;
  let grant = expect ~what:"odata" (llc_msgs h) (Msg.Req Msg.ReqOdata) in
  clear h;
  inject h ~kind:(Msg.Req Msg.ReqOdata) ~line:10 ~mask:(w 1) ();
  expect_no ~what:"delayed until data arrives" (peer_msgs h) (Msg.Rsp Msg.RspOdata);
  reply h ~to_:grant ~kind:Msg.RspOdata ~payload:(Msg.Data [| 7 |]) ();
  check_int "rmw applied" 7 (Option.get !got);
  let fwd = expect ~what:"served post-RMW" (peer_msgs h) (Msg.Rsp Msg.RspOdata) in
  Alcotest.(check (list int)) "post-update value" [ 8 ] (values fwd)

(* ===== MESI ================================================================== *)

let mesi_read_miss_reqs () =
  let h = harness () in
  let l1 = mk_mesi h in
  let port = Mesi_l1.port l1 in
  let got = ref None in
  port.Port.load (a 2 1) ~k:(fun v -> got := Some v);
  run h;
  let m = expect ~what:"gets" (llc_msgs h) (Msg.Req Msg.ReqS) in
  check_bool "line granularity" true (Mask.equal m.Msg.mask full);
  reply h ~to_:m ~kind:Msg.RspS ~payload:(Msg.Data (Array.init 16 Fun.id)) ();
  check_int "value" 1 (Option.get !got);
  check_bool "S state" true (Mesi_l1.line_state l1 ~line:2 = State.M_S)

let mesi_e_grant_and_silent_upgrade () =
  let h = harness () in
  let l1 = mk_mesi h in
  let port = Mesi_l1.port l1 in
  port.Port.load (a 3 0) ~k:(fun _ -> ());
  run h;
  let m = expect ~what:"gets" (llc_msgs h) (Msg.Req Msg.ReqS) in
  reply h ~to_:m ~kind:Msg.RspOdata ~payload:(Msg.Data (Array.make 16 0)) ();
  check_bool "E on exclusive grant" true (Mesi_l1.line_state l1 ~line:3 = State.M_E);
  clear h;
  (* Store to E: silent E->M, no traffic. *)
  port.Port.store (a 3 5) ~value:5 ~k:(fun () -> ());
  let done_ = ref false in
  port.Port.release ~k:(fun () -> done_ := true);
  run h;
  check_bool "silent upgrade" true (llc_msgs h = []);
  check_bool "M state" true (Mesi_l1.line_state l1 ~line:3 = State.M_M);
  check_bool "release immediate" true !done_

let mesi_write_miss_rfo () =
  let h = harness () in
  let l1 = mk_mesi h in
  let port = Mesi_l1.port l1 in
  port.Port.store (a 4 2) ~value:42 ~k:(fun () -> ());
  port.Port.release ~k:(fun () -> ());
  run h;
  (* Read-for-ownership: full-line ReqO+data even for one word (Table II). *)
  let m = expect ~what:"rfo" (llc_msgs h) (Msg.Req Msg.ReqOdata) in
  check_bool "full line" true (Mask.equal m.Msg.mask full);
  reply h ~to_:m ~kind:Msg.RspOdata ~payload:(Msg.Data (Array.make 16 9)) ();
  check_bool "M" true (Mesi_l1.line_state l1 ~line:4 = State.M_M);
  check_bool "store applied over fetched line" true
    (Mesi_l1.peek_word l1 (a 4 2) = Some 42 && Mesi_l1.peek_word l1 (a 4 3) = Some 9)

let mesi_fwd_reqs_downgrades_to_s () =
  let h = harness () in
  let l1 = mk_mesi h in
  let port = Mesi_l1.port l1 in
  port.Port.store (a 5 0) ~value:50 ~k:(fun () -> ());
  port.Port.release ~k:(fun () -> ());
  run h;
  reply h
    ~to_:(expect ~what:"rfo" (llc_msgs h) (Msg.Req Msg.ReqOdata))
    ~kind:Msg.RspOdata
    ~payload:(Msg.Data (Array.make 16 3))
    ();
  clear h;
  inject h ~kind:(Msg.Req Msg.ReqS) ~line:5 ~mask:full ();
  let to_reader = expect ~what:"data to reader" (peer_msgs h) (Msg.Rsp Msg.RspS) in
  check_int "line data" 16 (List.length (values to_reader));
  let wb = expect ~what:"wb copy to LLC" (llc_msgs h) (Msg.Rsp Msg.RspRvkO) in
  check_int "full line" 16 (List.length (values wb));
  check_bool "S afterwards" true (Mesi_l1.line_state l1 ~line:5 = State.M_S)

let mesi_partial_downgrade_fig1d () =
  let h = harness () in
  let l1 = mk_mesi h in
  let port = Mesi_l1.port l1 in
  port.Port.store (a 6 1) ~value:61 ~k:(fun () -> ());
  port.Port.release ~k:(fun () -> ());
  run h;
  reply h
    ~to_:(expect ~what:"rfo" (llc_msgs h) (Msg.Req Msg.ReqOdata))
    ~kind:Msg.RspOdata
    ~payload:(Msg.Data (Array.make 16 6))
    ();
  clear h;
  (* Word-granularity revocation from a Spandex LLC (Fig. 1d): serve the
     word, fall to I, write back everything else. *)
  inject h ~kind:(Msg.Req Msg.ReqO) ~line:6 ~mask:(w 9) ();
  ignore (expect ~what:"direct ack to writer" (peer_msgs h) (Msg.Rsp Msg.RspO));
  let wb = expect ~what:"wb of remainder" (llc_msgs h) (Msg.Req Msg.ReqWB) in
  check_int "15 words written back" 15 (Mask.count wb.Msg.mask);
  check_bool "word 9 excluded" false (Mask.mem wb.Msg.mask 9);
  check_bool "line dropped" true (Mesi_l1.line_state l1 ~line:6 = State.M_I);
  (* The store's value survives in the write-back. *)
  check_bool "wb carries the stored value" true
    (List.nth (values wb) 1 = 61)

let mesi_inv_on_s () =
  let h = harness () in
  let l1 = mk_mesi h in
  let port = Mesi_l1.port l1 in
  port.Port.load (a 7 0) ~k:(fun _ -> ());
  run h;
  reply h
    ~to_:(expect ~what:"gets" (llc_msgs h) (Msg.Req Msg.ReqS))
    ~kind:Msg.RspS
    ~payload:(Msg.Data (Array.make 16 1))
    ();
  clear h;
  inject h ~kind:(Msg.Probe Msg.Inv) ~line:7 ~mask:full ();
  ignore (expect ~what:"ack" (llc_msgs h) (Msg.Rsp Msg.Ack));
  check_bool "invalidated" true (Mesi_l1.line_state l1 ~line:7 = State.M_I);
  (* Stale Inv (no copy): still acked. *)
  clear h;
  inject h ~kind:(Msg.Probe Msg.Inv) ~line:7 ~mask:full ();
  ignore (expect ~what:"stale ack" (llc_msgs h) (Msg.Rsp Msg.Ack))

let mesi_rvko_writes_back () =
  let h = harness () in
  let l1 = mk_mesi h in
  let port = Mesi_l1.port l1 in
  port.Port.store (a 8 0) ~value:80 ~k:(fun () -> ());
  port.Port.release ~k:(fun () -> ());
  run h;
  reply h
    ~to_:(expect ~what:"rfo" (llc_msgs h) (Msg.Req Msg.ReqOdata))
    ~kind:Msg.RspOdata
    ~payload:(Msg.Data (Array.make 16 0))
    ();
  clear h;
  inject h ~kind:(Msg.Probe Msg.RvkO) ~line:8 ~mask:full ();
  let wb = expect ~what:"rsprvko" (llc_msgs h) (Msg.Rsp Msg.RspRvkO) in
  check_bool "dirty value" true (List.hd (values wb) = 80);
  check_bool "I after revoke" true (Mesi_l1.line_state l1 ~line:8 = State.M_I)

let mesi_steal_mid_write () =
  (* III-D case 2: a downgrade during a pending miss forces I + WB of the
     non-downgraded words once the grant lands. *)
  let h = harness () in
  let l1 = mk_mesi h in
  let port = Mesi_l1.port l1 in
  port.Port.store (a 9 4) ~value:94 ~k:(fun () -> ());
  port.Port.release ~k:(fun () -> ());
  run h;
  let grant = expect ~what:"rfo" (llc_msgs h) (Msg.Req Msg.ReqOdata) in
  clear h;
  inject h ~kind:(Msg.Req Msg.ReqO) ~line:9 ~mask:(w 0) ();
  ignore (expect ~what:"steal acked at once" (peer_msgs h) (Msg.Rsp Msg.RspO));
  reply h ~to_:grant ~kind:Msg.RspOdata ~payload:(Msg.Data (Array.make 16 2)) ();
  let wb = expect ~what:"wb of kept words" (llc_msgs h) (Msg.Req Msg.ReqWB) in
  check_int "15 kept words" 15 (Mask.count wb.Msg.mask);
  check_bool "line dropped (III-D rule)" true (Mesi_l1.line_state l1 ~line:9 = State.M_I);
  check_bool "store value in the wb" true (List.mem 94 (values wb))

let mesi_eviction_writes_back_m () =
  let h = harness () in
  let l1 = mk_mesi h in
  let port = Mesi_l1.port l1 in
  let fill line v =
    port.Port.store (a line 0) ~value:v ~k:(fun () -> ());
    port.Port.release ~k:(fun () -> ());
    run h;
    let rfo = expect ~what:"rfo" (llc_msgs h) (Msg.Req Msg.ReqOdata) in
    clear h;
    reply h ~to_:rfo ~kind:Msg.RspOdata ~payload:(Msg.Data (Array.make 16 0)) ()
  in
  (* sets=4, ways=2: three same-set lines force an eviction; the victim's
     PutM is emitted while installing the third line. *)
  fill 8 1;
  fill 12 2;
  fill 16 3;
  let wb = expect ~what:"PutM" (llc_msgs h) (Msg.Req Msg.ReqWB) in
  check_int "full line" 16 (Mask.count wb.Msg.mask)

(* ===== Write-backs in flight (the chassis's write-back table) ========== *)

(* The live-work items of write-backs awaiting their RspWB. *)
let wb_items h =
  List.filter
    (fun (i : Engine.pending_work) ->
      i.Engine.pw_what = "write-back awaiting RspWB")
    (Engine.live_work h.engine)

(* The write-back [wb] is live work under [device] until its RspWB. *)
let check_wb_live h ~device (wb : Msg.t) =
  match wb_items h with
  | [ i ] ->
    Alcotest.(check string) "listed under the device name" device
      i.Engine.pw_device;
    check_int "its txn" wb.Msg.txn i.Engine.pw_txn;
    check_int "its line" wb.Msg.line i.Engine.pw_line
  | items ->
    Alcotest.failf "%d write-back items, expected 1" (List.length items)

let denovo_wb_record_until_rspwb () =
  let h = harness () in
  let port = Denovo_l1.port (mk_denovo h) in
  (* sets=4, ways=2: owning lines 8, 12 and 16 (set 0) evicts an Owned
     line. *)
  List.iter
    (fun line ->
      port.Port.store (a line 0) ~value:(10 * line) ~k:(fun () -> ());
      port.Port.release ~k:(fun () -> ());
      run h;
      let m = expect ~what:"own" (llc_msgs h) (Msg.Req Msg.ReqO) in
      clear h;
      reply h ~to_:m ~kind:Msg.RspO ())
    [ 8; 12; 16 ];
  let wb = expect ~what:"eviction wb" (llc_msgs h) (Msg.Req Msg.ReqWB) in
  let line = wb.Msg.line in
  clear h;
  check_wb_live h ~device:"denovo_l1.0" wb;
  (* A forwarded ReqV that overtakes the RspWB is answered from the
     retained values. *)
  inject h ~kind:(Msg.Req Msg.ReqV) ~line ~mask:(w 0) ~demand:(w 0) ();
  let rv =
    expect ~what:"served from the record" (peer_msgs h) (Msg.Rsp Msg.RspV)
  in
  Alcotest.(check (list int)) "retained value" [ 10 * line ] (values rv);
  check_wb_live h ~device:"denovo_l1.0" wb;
  reply h ~to_:wb ~kind:Msg.RspWB ();
  check_int "retired on RspWB" 0 (List.length (wb_items h));
  (* The words are gone: a later forward is Nacked. *)
  clear h;
  inject h ~kind:(Msg.Req Msg.ReqV) ~line ~mask:(w 0) ~demand:(w 0) ();
  ignore (expect ~what:"nack after RspWB" (peer_msgs h) (Msg.Rsp Msg.Nack))

let mesi_wb_record_until_rspwb () =
  let h = harness () in
  let port = Mesi_l1.port (mk_mesi h) in
  (* Three same-set lines filled Modified: installing the third evicts
     one, whose data leaves in a full-line ReqWB. *)
  List.iter
    (fun line ->
      port.Port.store (a line 0) ~value:(10 * line) ~k:(fun () -> ());
      port.Port.release ~k:(fun () -> ());
      run h;
      let rfo = expect ~what:"rfo" (llc_msgs h) (Msg.Req Msg.ReqOdata) in
      clear h;
      reply h ~to_:rfo ~kind:Msg.RspOdata
        ~payload:(Msg.Data (Array.init 16 (fun i -> (100 * line) + i)))
        ())
    [ 8; 12; 16 ];
  let wb = expect ~what:"PutM" (llc_msgs h) (Msg.Req Msg.ReqWB) in
  let line = wb.Msg.line in
  clear h;
  check_wb_live h ~device:"mesi_l1.0" wb;
  (* A forwarded ReqS that overtakes the RspWB gets the retained values;
     the home's copy is the ReqWB itself, so its RspRvkO carries none. *)
  inject h ~kind:(Msg.Req Msg.ReqS) ~line ~mask:(Mask.of_list [ 0; 2 ]) ();
  let rs =
    expect ~what:"served from the record" (peer_msgs h) (Msg.Rsp Msg.RspS)
  in
  Alcotest.(check (list int)) "retained values" [ 10 * line; (100 * line) + 2 ]
    (values rs);
  let rvk = expect ~what:"home ack" (llc_msgs h) (Msg.Rsp Msg.RspRvkO) in
  check_bool "data-less" true (rvk.Msg.payload = Msg.No_data);
  check_wb_live h ~device:"mesi_l1.0" wb;
  reply h ~to_:wb ~kind:Msg.RspWB ();
  check_int "retired on RspWB" 0 (List.length (wb_items h))

(* ===== Allocation pins ({!Helpers.check_flat}) =============================== *)

(* [n] fault-free ReqVs, each sent to a home that drops it and delivered
   before the next.  A warm-up round first grows the engine's event
   free-list and delivery queue. *)
let chassis_request_words n =
  let engine = Engine.create () in
  let net = Network.create engine (Network.flat_topology ~latency:2) in
  Network.register net ~id:llc_id ignore;
  let ch =
    Spandex_l1.Chassis.create engine net ~id:dev_id ~home_id:llc_id
      ~home_banks:1 ~hit_latency:1 ~coalesce_window:2 ~mshrs:8 ~sb_capacity:8
      ~device:"l1.0" ~describe:(fun () -> (-1, "mshr"))
      ~is_write:(fun () -> false)
  in
  let round () =
    for i = 1 to n do
      Spandex_l1.Chassis.request ch ~txn:i ~kind:Msg.ReqV ~line:i ~mask:full ();
      ignore (Engine.run_all ~strict:false engine : int)
    done
  in
  round ();
  let w0 = Gc.minor_words () in
  round ();
  Gc.minor_words () -. w0

(* The message record is its header and 11 fields: no kind box, no retry
   closure. *)
let chassis_request_allocates_message_only () =
  Helpers.check_flat ~per_item:12 "Chassis.request" ~words:chassis_request_words

(* [n] load hits on a filled line while a miss to another line stays
   outstanding (its home never answers). *)
let denovo_hit_words n =
  let h = harness () in
  let port = Denovo_l1.port (mk_denovo h) in
  let got = ref 0 in
  let k v = got := v in
  port.Port.load (a 2 3) ~k;
  run h;
  let m = expect ~what:"fill" (llc_msgs h) (Msg.Req Msg.ReqV) in
  reply h ~to_:m ~kind:Msg.RspV
    ~payload:(Msg.Data (Array.init (Mask.count m.Msg.mask) (fun i -> 50 + i)))
    ();
  port.Port.load (a 5 0) ~k;
  run h;
  check_int "one miss outstanding" 2 (List.length (llc_msgs h));
  let addr = a 2 3 in
  let round () =
    for _ = 1 to n do
      port.Port.load addr ~k;
      run h
    done
  in
  round ();
  let w0 = Gc.minor_words () in
  round ();
  let words = Gc.minor_words () -. w0 in
  check_int "hits read the fill" 53 !got;
  words

let denovo_hit_beside_miss_allocates_nothing () =
  Helpers.check_flat "DeNovo load hit beside an outstanding miss"
    ~words:denovo_hit_words

let tests =
  [
    test "chassis_request_allocates_message_only"
      chassis_request_allocates_message_only;
    test "denovo_hit_beside_miss_allocates_nothing"
      denovo_hit_beside_miss_allocates_nothing;
    test "gpu_read_miss_line_reqv" gpu_read_miss_line_reqv;
    test "gpu_store_writes_through_word" gpu_store_writes_through_word;
    test "gpu_rmw_bypasses_l1" gpu_rmw_bypasses_l1;
    test "gpu_acquire_flash_invalidates" gpu_acquire_flash_invalidates;
    test "gpu_nack_retry_then_convert" gpu_nack_retry_then_convert;
    test "gpu_inv_acked_silently" gpu_inv_acked_silently;
    test "denovo_read_word_demand_line_fill" denovo_read_word_demand_line_fill;
    test "denovo_store_reqo_no_data" denovo_store_reqo_no_data;
    test "denovo_rmw_local_with_ownership" denovo_rmw_local_with_ownership;
    test "denovo_rmw_at_llc_mode" denovo_rmw_at_llc_mode;
    test "denovo_acquire_keeps_owned" denovo_acquire_keeps_owned;
    test "denovo_external_table_iv" denovo_external_table_iv;
    test "denovo_fwd_reqs_surrenders_data" denovo_fwd_reqs_surrenders_data;
    test "denovo_eviction_wb_serves_externals" denovo_eviction_wb_serves_externals;
    test "denovo_steal_mid_own_grant" denovo_steal_mid_own_grant;
    test "denovo_data_request_mid_rmw_delayed" denovo_data_request_mid_rmw_delayed;
    test "mesi_read_miss_reqs" mesi_read_miss_reqs;
    test "mesi_e_grant_and_silent_upgrade" mesi_e_grant_and_silent_upgrade;
    test "mesi_write_miss_rfo" mesi_write_miss_rfo;
    test "mesi_fwd_reqs_downgrades_to_s" mesi_fwd_reqs_downgrades_to_s;
    test "mesi_partial_downgrade_fig1d" mesi_partial_downgrade_fig1d;
    test "mesi_inv_on_s" mesi_inv_on_s;
    test "mesi_rvko_writes_back" mesi_rvko_writes_back;
    test "mesi_steal_mid_write" mesi_steal_mid_write;
    test "mesi_eviction_writes_back_m" mesi_eviction_writes_back_m;
    test "denovo_wb_record_until_rspwb" denovo_wb_record_until_rspwb;
    test "mesi_wb_record_until_rspwb" mesi_wb_record_until_rspwb;
  ]
