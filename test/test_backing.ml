(* Unit tests for the LLC's backing interface: fetches, exclusivity
   upgrades, and parent recalls — the machinery that makes the Spandex
   engine double as the hierarchical GPU L2 (DESIGN.md par.4) — plus the
   MESI client port against a scripted directory. *)

module Engine = Spandex_sim.Engine
module Network = Spandex_net.Network
module Msg = Spandex_proto.Msg
module Addr = Spandex_proto.Addr
module Mask = Spandex_util.Mask
module State = Spandex_proto.State
module Llc = Spandex.Llc
module Backing = Spandex.Backing
module Mesi_client = Spandex_mesi.Mesi_client

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let llc_id = 10
let full = Addr.full_mask
let expect = Proto_harness.expect_kind
let expect_no = Proto_harness.expect_no_kind

(* A scripted backing: the test controls when acquires complete and can
   fire recalls. *)
type scripted = {
  mutable acquires : (int * bool * (int array option -> excl:bool -> unit)) list;
  mutable writebacks : (int * int array * bool) list;
  mutable recall : Backing.recall_handler;
}

let scripted_backing () =
  let s = { acquires = []; writebacks = []; recall = (fun ~line:_ ~kind:_ ~k -> k None) } in
  let backing =
    {
      Backing.acquire = (fun ~line ~excl ~k -> s.acquires <- s.acquires @ [ (line, excl, k) ]);
      writeback =
        (fun ~line ~data ~dirty ~k ->
          s.writebacks <- s.writebacks @ [ (line, data, dirty) ];
          k ());
      set_recall_handler = (fun h -> s.recall <- h);
    }
  in
  (s, backing)

type h = {
  engine : Engine.t;
  net : Network.t;
  llc : Llc.t;
  script : scripted;
  inboxes : Msg.t list ref array;
}

let harness () =
  Spandex_proto.Txn.reset ();
  let engine = Engine.create () in
  let net = Network.create engine (Network.flat_topology ~latency:2) in
  let script, backing = scripted_backing () in
  let llc =
    Llc.create ~name:"llc" engine net backing
      {
        Llc.llc_id;
        banks = 1;
        sets = 8;
        ways = 2;
        access_latency = 1;
        is_mesi = (fun _ -> false);
        reqs_policy = Llc.Reqs_auto;
      }
  in
  let inboxes =
    Array.init 2 (fun id ->
        let inbox = ref [] in
        Network.register net ~id (fun m -> inbox := m :: !inbox);
        inbox)
  in
  { engine; net; llc; script; inboxes }

let run h = ignore (Engine.run_all ~strict:false h.engine)
let msgs h i = List.rev !(h.inboxes.(i))
let clear h = Array.iter (fun r -> r := []) h.inboxes

let send h ~from ~kind ~line ~mask ?payload () =
  Network.send h.net
    (Msg.make ~txn:(Spandex_proto.Txn.fresh ()) ~kind ~line ~mask ?payload
       ~src:from ~dst:llc_id ());
  run h

let grant h ?(data = Array.init 16 (fun i -> 700 + i)) ?(excl = true) () =
  match h.script.acquires with
  | (_, _, k) :: rest ->
    h.script.acquires <- rest;
    k (Some data) ~excl;
    run h
  | [] -> Alcotest.fail "no pending acquire to grant"

(* --- fetch and upgrade -------------------------------------------------------- *)

let fetch_blocks_until_grant () =
  let h = harness () in
  send h ~from:0 ~kind:(Msg.Req Msg.ReqV) ~line:3 ~mask:full ();
  (* The read waits on the backing fetch. *)
  expect_no ~what:"no response before fill" (msgs h 0) (Msg.Rsp Msg.RspV);
  check_int "one acquire" 1 (List.length h.script.acquires);
  (match h.script.acquires with
  | [ (3, excl, _) ] -> check_bool "ReqV fetches shared" false excl
  | _ -> Alcotest.fail "expected acquire of line 3");
  grant h ~excl:false ();
  let rsp = expect ~what:"fill served" (msgs h 0) (Msg.Rsp Msg.RspV) in
  check_int "backed data" 700 (List.hd (Proto_harness.payload_list rsp))

let write_triggers_exclusive_upgrade () =
  let h = harness () in
  send h ~from:0 ~kind:(Msg.Req Msg.ReqV) ~line:3 ~mask:full ();
  grant h ~excl:false ();
  clear h;
  (* A write needs exclusivity: the LLC must upgrade through the backing. *)
  send h ~from:0 ~kind:(Msg.Req Msg.ReqO) ~line:3 ~mask:(Mask.singleton 0) ();
  expect_no ~what:"blocked on upgrade" (msgs h 0) (Msg.Rsp Msg.RspO);
  (match h.script.acquires with
  | [ (3, true, _) ] -> ()
  | _ -> Alcotest.fail "expected exclusive upgrade of line 3");
  grant h ();
  ignore (expect ~what:"granted after upgrade" (msgs h 0) (Msg.Rsp Msg.RspO))

let upgrade_refreshes_stale_data () =
  (* An Inv raced past the upgrade: the grant carries fresh data that must
     replace the LLC's copy (III-C). *)
  let h = harness () in
  send h ~from:0 ~kind:(Msg.Req Msg.ReqV) ~line:3 ~mask:full ();
  grant h ~excl:false ~data:(Array.make 16 1) ();
  clear h;
  send h ~from:0 ~kind:(Msg.Req Msg.ReqWT) ~line:3 ~mask:(Mask.singleton 2)
    ~payload:(Msg.Data [| 42 |]) ();
  grant h ~data:(Array.make 16 9) ();
  check_bool "written word" true
    (Llc.peek_word h.llc (Addr.make ~line:3 ~word:2) = Some 42);
  check_bool "other words refreshed from the grant" true
    (Llc.peek_word h.llc (Addr.make ~line:3 ~word:5) = Some 9)

(* --- recalls -------------------------------------------------------------------- *)

let fill h ~line =
  send h ~from:0 ~kind:(Msg.Req Msg.ReqO) ~line ~mask:(Mask.singleton 1) ();
  grant h ()

let recall_excl_purges_and_drops () =
  let h = harness () in
  fill h ~line:3;
  clear h;
  let result = ref None in
  h.script.recall ~line:3 ~kind:Backing.Recall_excl ~k:(fun r -> result := Some r);
  run h;
  (* The internal owner must be revoked first. *)
  let rvko = expect ~what:"internal revoke" (msgs h 0) (Msg.Probe Msg.RvkO) in
  check_bool "not yet resolved" true (!result = None);
  send h ~from:0 ~kind:(Msg.Rsp Msg.RspRvkO) ~line:3 ~mask:(Mask.singleton 1)
    ~payload:(Msg.Data [| 77 |]) ();
  ignore rvko;
  (match !result with
  | Some (Some (data, dirty)) ->
    check_int "revoked data merged" 77 data.(1);
    check_bool "dirty" true dirty
  | _ -> Alcotest.fail "recall must resolve with data");
  check_bool "line dropped" true (Llc.line_state h.llc ~line:3 = None)

let recall_shared_keeps_line () =
  let h = harness () in
  fill h ~line:3;
  clear h;
  let result = ref None in
  h.script.recall ~line:3 ~kind:Backing.Recall_shared ~k:(fun r -> result := Some r);
  run h;
  send h ~from:0 ~kind:(Msg.Rsp Msg.RspRvkO) ~line:3 ~mask:(Mask.singleton 1)
    ~payload:(Msg.Data [| 88 |]) ();
  (match !result with
  | Some (Some (data, _)) -> check_int "data surrendered" 88 data.(1)
  | _ -> Alcotest.fail "recall must resolve");
  check_bool "line kept" true (Llc.line_state h.llc ~line:3 <> None);
  check_bool "ownership gone" true (Mask.is_empty (Llc.owned_mask h.llc ~line:3));
  clear h;
  (* Reads still hit; a write must re-upgrade. *)
  send h ~from:1 ~kind:(Msg.Req Msg.ReqV) ~line:3 ~mask:(Mask.singleton 5) ();
  ignore (expect ~what:"read hits shared line" (msgs h 1) (Msg.Rsp Msg.RspV));
  send h ~from:1 ~kind:(Msg.Req Msg.ReqO) ~line:3 ~mask:(Mask.singleton 5) ();
  check_int "write re-upgrades" 1 (List.length h.script.acquires)

let recall_of_absent_line_resolves_none () =
  let h = harness () in
  let result = ref None in
  h.script.recall ~line:9 ~kind:Backing.Recall_excl ~k:(fun r -> result := Some r);
  run h;
  check_bool "absent line" true (!result = Some None)

let recall_queued_behind_pending_fetch () =
  let h = harness () in
  send h ~from:0 ~kind:(Msg.Req Msg.ReqV) ~line:3 ~mask:full ();
  let result = ref None in
  h.script.recall ~line:3 ~kind:Backing.Recall_excl ~k:(fun r -> result := Some r);
  run h;
  check_bool "recall waits for the fetch" true (!result = None);
  grant h ~excl:false ();
  (match !result with
  | Some (Some _) -> ()
  | _ -> Alcotest.fail "recall must resolve after the fetch");
  (* The recall dropped the line; the still-unserved ReqV re-fetches. *)
  check_int "reader re-fetches" 1 (List.length h.script.acquires);
  grant h ~excl:false ~data:(Array.make 16 12) ();
  let rsp = expect ~what:"read finally served" (msgs h 0) (Msg.Rsp Msg.RspV) in
  check_int "fresh data" 12 (List.hd (Proto_harness.payload_list rsp))

let eviction_writes_back_through_backing () =
  let h = harness () in
  (* sets=8, ways=2: lines 1, 9, 17 conflict. *)
  send h ~from:0 ~kind:(Msg.Req Msg.ReqWT) ~line:1 ~mask:(Mask.singleton 0)
    ~payload:(Msg.Data [| 5 |]) ();
  grant h ();
  send h ~from:0 ~kind:(Msg.Req Msg.ReqV) ~line:9 ~mask:full ();
  grant h ~excl:false ();
  send h ~from:0 ~kind:(Msg.Req Msg.ReqV) ~line:17 ~mask:full ();
  (match h.script.writebacks with
  | [ (1, data, true) ] -> check_int "dirty eviction data" 5 data.(0)
  | _ -> Alcotest.fail "expected a dirty write-back of line 1")

(* --- Mesi_client against a scripted directory ----------------------------------- *)

type ch = {
  cengine : Engine.t;
  cnet : Network.t;
  client : Mesi_client.t;
  dir_inbox : Msg.t list ref;
  req_inbox : Msg.t list ref;
}

let client_harness () =
  Spandex_proto.Txn.reset ();
  let cengine = Engine.create () in
  let cnet = Network.create cengine (Network.flat_topology ~latency:2) in
  let dir_inbox = ref [] and req_inbox = ref [] in
  Network.register cnet ~id:20 (fun m -> dir_inbox := m :: !dir_inbox);
  Network.register cnet ~id:5 (fun m -> req_inbox := m :: !req_inbox);
  let client =
    Mesi_client.create ~name:"mesi_client" cengine cnet
      { Mesi_client.id = 8; dir_id = 20; dir_banks = 1; hit_latency = 1 }
  in
  { cengine; cnet; client; dir_inbox; req_inbox }

let crun c = ignore (Engine.run_all ~strict:false c.cengine)

let canswer c ~kind ?payload () =
  match List.rev !(c.dir_inbox) with
  | m :: _ ->
    c.dir_inbox := [];
    Network.send c.cnet
      (Msg.make ~txn:m.Msg.txn ~kind:(Msg.Rsp kind) ~line:m.Msg.line
         ~mask:m.Msg.mask ?payload ~src:20 ~dst:8 ());
    crun c
  | [] -> Alcotest.fail "no directory request to answer"

let client_acquire_states () =
  let c = client_harness () in
  let b = Mesi_client.backing c.client in
  let got = ref None in
  (* Shared fetch: GetS. *)
  b.Backing.acquire ~line:4 ~excl:false ~k:(fun d ~excl -> got := Some (d, excl));
  crun c;
  ignore (expect ~what:"gets" (List.rev !(c.dir_inbox)) (Msg.Req Msg.ReqS));
  canswer c ~kind:Msg.RspS ~payload:(Msg.Data (Array.make 16 3)) ();
  (match !got with
  | Some (Some d, false) -> check_int "data" 3 d.(0)
  | _ -> Alcotest.fail "expected shared grant");
  (* Re-acquire shared: satisfied locally, no directory traffic. *)
  got := None;
  b.Backing.acquire ~line:4 ~excl:false ~k:(fun d ~excl -> got := Some (d, excl));
  crun c;
  check_bool "local hit" true (!got = Some (None, false));
  check_bool "no new request" true (!(c.dir_inbox) = []);
  (* Upgrade to exclusive: GetM. *)
  got := None;
  b.Backing.acquire ~line:4 ~excl:true ~k:(fun d ~excl -> got := Some (d, excl));
  crun c;
  ignore (expect ~what:"getm" (List.rev !(c.dir_inbox)) (Msg.Req Msg.ReqOdata));
  canswer c ~kind:Msg.RspOdata ~payload:(Msg.Data (Array.make 16 4)) ();
  (match !got with
  | Some (Some _, true) -> ()
  | _ -> Alcotest.fail "expected exclusive grant")

let client_writeback_putm () =
  let c = client_harness () in
  let b = Mesi_client.backing c.client in
  b.Backing.acquire ~line:4 ~excl:true ~k:(fun _ ~excl:_ -> ());
  crun c;
  canswer c ~kind:Msg.RspOdata ~payload:(Msg.Data (Array.make 16 0)) ();
  let done_ = ref false in
  b.Backing.writeback ~line:4 ~data:(Array.make 16 44) ~dirty:true ~k:(fun () ->
      done_ := true);
  crun c;
  let putm = expect ~what:"putm" (List.rev !(c.dir_inbox)) (Msg.Req Msg.ReqWB) in
  check_int "data" 44 (List.hd (Proto_harness.payload_list putm));
  check_bool "waits for ack" false !done_;
  canswer c ~kind:Msg.RspWB ();
  check_bool "acked" true !done_;
  (* A forwarded request while the PutM is in flight is served from the
     retained record... *)
  b.Backing.acquire ~line:4 ~excl:true ~k:(fun _ ~excl:_ -> ());
  crun c;
  ignore (expect ~what:"refetch" (List.rev !(c.dir_inbox)) (Msg.Req Msg.ReqOdata))

let client_fwd_served_from_wb_record () =
  let c = client_harness () in
  let b = Mesi_client.backing c.client in
  b.Backing.acquire ~line:4 ~excl:true ~k:(fun _ ~excl:_ -> ());
  crun c;
  canswer c ~kind:Msg.RspOdata ~payload:(Msg.Data (Array.make 16 0)) ();
  b.Backing.writeback ~line:4 ~data:(Array.make 16 55) ~dirty:true ~k:(fun () -> ());
  crun c;
  c.dir_inbox := [];
  (* The dir forwarded a GetM before seeing our PutM. *)
  Network.send c.cnet
    (Msg.make ~txn:999 ~kind:(Msg.Req Msg.ReqOdata) ~line:4 ~mask:full ~src:20
       ~dst:8 ~requestor:5 ~fwd:true ());
  crun c;
  let rsp = expect ~what:"data to requestor" (List.rev !(c.req_inbox)) (Msg.Rsp Msg.RspOdata) in
  check_int "retained data" 55 (List.hd (Proto_harness.payload_list rsp));
  ignore (expect ~what:"transfer ack to dir" (List.rev !(c.dir_inbox)) (Msg.Rsp Msg.RspRvkO))

let tests =
  [
    test "fetch_blocks_until_grant" fetch_blocks_until_grant;
    test "write_triggers_exclusive_upgrade" write_triggers_exclusive_upgrade;
    test "upgrade_refreshes_stale_data" upgrade_refreshes_stale_data;
    test "recall_excl_purges_and_drops" recall_excl_purges_and_drops;
    test "recall_shared_keeps_line" recall_shared_keeps_line;
    test "recall_of_absent_line_resolves_none" recall_of_absent_line_resolves_none;
    test "recall_queued_behind_pending_fetch" recall_queued_behind_pending_fetch;
    test "eviction_writes_back_through_backing" eviction_writes_back_through_backing;
    test "client_acquire_states" client_acquire_states;
    test "client_writeback_putm" client_writeback_putm;
    test "client_fwd_served_from_wb_record" client_fwd_served_from_wb_record;
  ]
