(* Unit tests for the Spandex LLC: every Table III transition, the blocking
   cases, the races of paper III-C, and eviction/purge machinery. *)

open Proto_harness
module State = Spandex_proto.State
module Amo = Spandex_proto.Amo

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let w = Mask.singleton
let full = Addr.full_mask

(* --- ReqV ------------------------------------------------------------------- *)

let reqv_fills_from_memory () =
  let t = setup () in
  ignore (req t ~from:0 ~kind:Msg.ReqV ~line:3 ~mask:full ());
  let m = expect_kind ~what:"fill" (inbox t 0) (Msg.Rsp Msg.RspV) in
  check_int "all words" 16 (List.length (payload_list m));
  check_int "first value" (init_word ~line:3 ~word:0) (List.hd (payload_list m));
  check_bool "line resident V" true (Llc.line_state t.llc ~line:3 = Some State.L_V);
  check_bool "no ownership" true (Mask.is_empty (Llc.owned_mask t.llc ~line:3))

let reqv_no_state_change () =
  let t = setup () in
  ignore (req t ~from:0 ~kind:Msg.ReqV ~line:3 ~mask:full ());
  ignore (req t ~from:1 ~kind:Msg.ReqV ~line:3 ~mask:full ());
  check_bool "still V" true (Llc.line_state t.llc ~line:3 = Some State.L_V);
  check_bool "no sharers" true (Llc.sharers t.llc ~line:3 = [])

let reqv_forwards_owned_words () =
  let t = setup () in
  (* Device 0 takes word 4. *)
  ignore (req t ~from:0 ~kind:Msg.ReqO ~line:3 ~mask:(w 4) ());
  clear_inboxes t;
  (* Device 1 reads the line demanding word 4. *)
  ignore (req t ~from:1 ~kind:Msg.ReqV ~line:3 ~mask:full ~demand:(w 4) ());
  let fill = expect_kind ~what:"LLC part" (inbox t 1) (Msg.Rsp Msg.RspV) in
  check_int "15 local words" 15 (List.length (payload_list fill));
  let fwd = expect_kind ~what:"forward" (inbox t 0) (Msg.Req Msg.ReqV) in
  check_bool "fwd flag" true fwd.Msg.fwd;
  check_bool "fwd covers owned word" true (Mask.mem fwd.Msg.mask 4);
  check_bool "fwd demand" true (Mask.mem fwd.Msg.demand 4);
  check_int "requestor preserved" 1 fwd.Msg.requestor;
  (* Ownership unchanged by ReqV. *)
  check_bool "still owned by 0" true (Llc.owner_of t.llc (Addr.make ~line:3 ~word:4) = Some 0)

let reqv_self_owned_demand_nacked () =
  let t = setup () in
  ignore (req t ~from:0 ~kind:Msg.ReqO ~line:3 ~mask:(w 2) ());
  clear_inboxes t;
  ignore (req t ~from:0 ~kind:Msg.ReqV ~line:3 ~mask:(w 2) ~demand:(w 2) ());
  let nack = expect_kind ~what:"self nack" (inbox t 0) (Msg.Rsp Msg.Nack) in
  check_bool "nack word" true (Mask.mem nack.Msg.mask 2)

(* --- ReqO / ReqO+data --------------------------------------------------------- *)

let reqo_grants_word_ownership () =
  let t = setup () in
  ignore (req t ~from:0 ~kind:Msg.ReqO ~line:5 ~mask:(Mask.of_list [ 1; 2 ]) ());
  let rsp = expect_kind ~what:"grant" (inbox t 0) (Msg.Rsp Msg.RspO) in
  check_bool "no data in RspO" true (payload_list rsp = []);
  check_bool "owner recorded" true
    (Llc.owner_of t.llc (Addr.make ~line:5 ~word:1) = Some 0
    && Llc.owner_of t.llc (Addr.make ~line:5 ~word:2) = Some 0);
  check_bool "other words unowned" true
    (Llc.owner_of t.llc (Addr.make ~line:5 ~word:3) = None)

let reqo_transfer_nonblocking () =
  let t = setup () in
  ignore (req t ~from:0 ~kind:Msg.ReqO ~line:5 ~mask:(w 1) ());
  clear_inboxes t;
  ignore (req t ~from:1 ~kind:Msg.ReqO ~line:5 ~mask:(w 1) ());
  (* Ownership moves immediately; the old owner is told to downgrade and
     answers the requestor directly; the LLC does not block. *)
  check_bool "new owner immediately" true
    (Llc.owner_of t.llc (Addr.make ~line:5 ~word:1) = Some 1);
  let fwd = expect_kind ~what:"revoke fwd" (inbox t 0) (Msg.Req Msg.ReqO) in
  check_int "fwd requestor" 1 fwd.Msg.requestor;
  (* A third request for the same line is served without waiting. *)
  ignore (req t ~from:2 ~kind:Msg.ReqV ~line:5 ~mask:(w 9) ());
  ignore (expect_kind ~what:"not blocked" (inbox t 2) (Msg.Rsp Msg.RspV))

let reqodata_carries_data () =
  let t = setup () in
  ignore (req t ~from:0 ~kind:Msg.ReqOdata ~line:6 ~mask:(w 3) ());
  let rsp = expect_kind ~what:"grant+data" (inbox t 0) (Msg.Rsp Msg.RspOdata) in
  check_int "value" (init_word ~line:6 ~word:3) (List.hd (payload_list rsp));
  check_bool "owned" true (Llc.owner_of t.llc (Addr.make ~line:6 ~word:3) = Some 0)

let reqodata_forwards_to_owner () =
  let t = setup () in
  ignore (req t ~from:0 ~kind:Msg.ReqOdata ~line:6 ~mask:(w 3) ());
  clear_inboxes t;
  ignore (req t ~from:1 ~kind:Msg.ReqOdata ~line:6 ~mask:(w 3) ());
  let fwd = expect_kind ~what:"fwd" (inbox t 0) (Msg.Req Msg.ReqOdata) in
  check_int "to old owner, requestor 1" 1 fwd.Msg.requestor;
  expect_no_kind ~what:"LLC must not answer the owned word" (inbox t 1)
    (Msg.Rsp Msg.RspOdata);
  check_bool "transfer immediate" true
    (Llc.owner_of t.llc (Addr.make ~line:6 ~word:3) = Some 1)

(* --- ReqWT / ReqWT+data -------------------------------------------------------- *)

let reqwt_writes_through () =
  let t = setup () in
  ignore
    (req t ~from:0 ~kind:Msg.ReqWT ~line:7 ~mask:(Mask.of_list [ 0; 8 ])
       ~payload:(Msg.Data [| 111; 222 |])
       ());
  ignore (expect_kind ~what:"ack" (inbox t 0) (Msg.Rsp Msg.RspWT));
  check_bool "data at LLC" true
    (Llc.peek_word t.llc (Addr.make ~line:7 ~word:0) = Some 111
    && Llc.peek_word t.llc (Addr.make ~line:7 ~word:8) = Some 222);
  check_bool "no ownership from WT" true (Mask.is_empty (Llc.owned_mask t.llc ~line:7))

let reqwt_revokes_owner_fig1d () =
  let t = setup () in
  ignore (req t ~from:0 ~kind:Msg.ReqO ~line:7 ~mask:(w 5) ());
  clear_inboxes t;
  ignore
    (req t ~from:1 ~kind:Msg.ReqWT ~line:7 ~mask:(Mask.of_list [ 5; 6 ])
       ~payload:(Msg.Data [| 55; 66 |])
       ());
  (* LLC immediately updates data and ownership, forwards a data-less
     revoke; the owner (not the LLC) acks the revoked word. *)
  check_bool "word 5 no longer owned" true
    (Llc.owner_of t.llc (Addr.make ~line:7 ~word:5) = None);
  check_bool "written immediately" true
    (Llc.peek_word t.llc (Addr.make ~line:7 ~word:5) = Some 55);
  let fwd = expect_kind ~what:"revoke" (inbox t 0) (Msg.Req Msg.ReqO) in
  check_bool "revoke covers only owned word" true (Mask.equal fwd.Msg.mask (w 5));
  let ack = expect_kind ~what:"partial ack" (inbox t 1) (Msg.Rsp Msg.RspWT) in
  check_bool "LLC acks only unowned part" true (Mask.equal ack.Msg.mask (w 6))

let reqwtdata_atomic_at_llc () =
  let t = setup () in
  ignore
    (req t ~from:0 ~kind:Msg.ReqWTdata ~line:8 ~mask:(w 2) ~amo:(Amo.Add 5) ());
  let rsp = expect_kind ~what:"old value" (inbox t 0) (Msg.Rsp Msg.RspWTdata) in
  check_int "returns pre-update value" (init_word ~line:8 ~word:2)
    (List.hd (payload_list rsp));
  check_bool "updated at LLC" true
    (Llc.peek_word t.llc (Addr.make ~line:8 ~word:2)
    = Some (init_word ~line:8 ~word:2 + 5))

let reqwtdata_blocks_on_rvko () =
  let t = setup () in
  ignore (req t ~from:0 ~kind:Msg.ReqOdata ~line:8 ~mask:(w 2) ());
  clear_inboxes t;
  ignore
    (req t ~from:1 ~kind:Msg.ReqWTdata ~line:8 ~mask:(w 2) ~amo:(Amo.Add 1) ());
  let rvko = expect_kind ~what:"revoke" (inbox t 0) (Msg.Probe Msg.RvkO) in
  expect_no_kind ~what:"blocked until write-back" (inbox t 1)
    (Msg.Rsp Msg.RspWTdata);
  (* A racing read is queued behind the blocking state... *)
  ignore (req t ~from:2 ~kind:Msg.ReqV ~line:8 ~mask:(w 0) ());
  expect_no_kind ~what:"queued" (inbox t 2) (Msg.Rsp Msg.RspV);
  (* ...until the owner writes back (value 99). *)
  rsp t ~from:0 ~kind:Msg.RspRvkO ~line:8 ~mask:(w 2)
    ~payload:(Msg.Data [| 99 |]) ~txn:rvko.Msg.txn ();
  let result = expect_kind ~what:"atomic done" (inbox t 1) (Msg.Rsp Msg.RspWTdata) in
  check_int "old value from owner" 99 (List.hd (payload_list result));
  check_bool "post-update at LLC" true
    (Llc.peek_word t.llc (Addr.make ~line:8 ~word:2) = Some 100);
  ignore (expect_kind ~what:"queued read replayed" (inbox t 2) (Msg.Rsp Msg.RspV))

(* --- ReqS: options (1) and (3) --------------------------------------------------- *)

let reqs_opt3_treated_as_ownership () =
  (* Unshared, no MESI owner: option (3) grants ownership with data. *)
  let t = setup ~is_mesi:(fun id -> id = 1) () in
  ignore (req t ~from:1 ~kind:Msg.ReqS ~line:9 ~mask:full ());
  let rsp = expect_kind ~what:"E grant" (inbox t 1) (Msg.Rsp Msg.RspOdata) in
  check_int "full data" 16 (List.length (payload_list rsp));
  check_bool "whole line owned" true
    (Mask.equal (Llc.owned_mask t.llc ~line:9) full);
  check_bool "no sharers" true (Llc.sharers t.llc ~line:9 = [])

let reqs_opt3_with_denovo_owner () =
  let t = setup ~is_mesi:(fun id -> id = 1) () in
  ignore (req t ~from:0 ~kind:Msg.ReqO ~line:9 ~mask:(w 7) ());
  clear_inboxes t;
  ignore (req t ~from:1 ~kind:Msg.ReqS ~line:9 ~mask:full ());
  (* Non-MESI owner: option 3; the DeNovo owner receives ReqO+data. *)
  let fwd = expect_kind ~what:"fwd odata" (inbox t 0) (Msg.Req Msg.ReqOdata) in
  check_bool "only owned word forwarded" true (Mask.equal fwd.Msg.mask (w 7));
  let rsp = expect_kind ~what:"rest from LLC" (inbox t 1) (Msg.Rsp Msg.RspOdata) in
  check_int "15 words" 15 (List.length (payload_list rsp));
  check_bool "requestor owns all" true
    (Llc.owner_of t.llc (Addr.make ~line:9 ~word:7) = Some 1)

let reqs_opt1_with_mesi_owner () =
  let t = setup ~is_mesi:(fun _ -> true) () in
  ignore (req t ~from:0 ~kind:Msg.ReqOdata ~line:9 ~mask:full ());
  clear_inboxes t;
  ignore (req t ~from:1 ~kind:Msg.ReqS ~line:9 ~mask:full ());
  let fwd = expect_kind ~what:"fwd ReqS" (inbox t 0) (Msg.Req Msg.ReqS) in
  check_int "requestor" 1 fwd.Msg.requestor;
  (* Blocked until the owner's write-back copy arrives. *)
  check_bool "still owned while blocked" true
    (not (Mask.is_empty (Llc.owned_mask t.llc ~line:9)));
  rsp t ~from:0 ~kind:Msg.RspRvkO ~line:9 ~mask:full
    ~payload:(Msg.Data (Array.init 16 (fun i -> 900 + i)))
    ~txn:fwd.Msg.txn ();
  check_bool "line Shared" true (Llc.line_state t.llc ~line:9 = Some State.L_S);
  check_bool "ownership cleared" true (Mask.is_empty (Llc.owned_mask t.llc ~line:9));
  let sharers = Llc.sharers t.llc ~line:9 in
  check_bool "old owner and requestor are sharers" true
    (List.mem 0 sharers && List.mem 1 sharers);
  check_bool "write-back merged" true
    (Llc.peek_word t.llc (Addr.make ~line:9 ~word:4) = Some 904)

let reqs_opt1_when_already_shared () =
  let t = setup ~is_mesi:(fun _ -> true) () in
  (* Build LS state via opt1 path. *)
  ignore (req t ~from:0 ~kind:Msg.ReqOdata ~line:9 ~mask:full ());
  let fwd = expect_kind ~what:"setup" (inbox t 0) (Msg.Rsp Msg.RspOdata) in
  ignore fwd;
  clear_inboxes t;
  let txn = req t ~from:1 ~kind:Msg.ReqS ~line:9 ~mask:full () in
  ignore txn;
  let fwd = expect_kind ~what:"fwd" (inbox t 0) (Msg.Req Msg.ReqS) in
  rsp t ~from:0 ~kind:Msg.RspRvkO ~line:9 ~mask:full
    ~payload:(Msg.Data (Array.make 16 7)) ~txn:fwd.Msg.txn ();
  clear_inboxes t;
  (* Third reader: immediate RspS, added to sharers, no blocking. *)
  ignore (req t ~from:2 ~kind:Msg.ReqS ~line:9 ~mask:full ());
  let rsp2 = expect_kind ~what:"shared read" (inbox t 2) (Msg.Rsp Msg.RspS) in
  check_int "line data" 16 (List.length (payload_list rsp2));
  check_bool "three sharers" true (List.length (Llc.sharers t.llc ~line:9) = 3)

let write_to_shared_collects_acks () =
  let t = setup ~is_mesi:(fun _ -> true) () in
  (* LS with sharers {0,1} as above. *)
  ignore (req t ~from:0 ~kind:Msg.ReqOdata ~line:9 ~mask:full ());
  clear_inboxes t;
  let _ = req t ~from:1 ~kind:Msg.ReqS ~line:9 ~mask:full () in
  let fwd = expect_kind ~what:"fwd" (inbox t 0) (Msg.Req Msg.ReqS) in
  rsp t ~from:0 ~kind:Msg.RspRvkO ~line:9 ~mask:full
    ~payload:(Msg.Data (Array.make 16 7)) ~txn:fwd.Msg.txn ();
  clear_inboxes t;
  (* Device 2 writes word 0: both sharers must be invalidated first. *)
  ignore
    (req t ~from:2 ~kind:Msg.ReqWT ~line:9 ~mask:(w 0)
       ~payload:(Msg.Data [| 1234 |]) ());
  let inv0 = expect_kind ~what:"inv to 0" (inbox t 0) (Msg.Probe Msg.Inv) in
  let inv1 = expect_kind ~what:"inv to 1" (inbox t 1) (Msg.Probe Msg.Inv) in
  expect_no_kind ~what:"write blocked" (inbox t 2) (Msg.Rsp Msg.RspWT);
  rsp t ~from:0 ~kind:Msg.Ack ~line:9 ~mask:full ~txn:inv0.Msg.txn ();
  expect_no_kind ~what:"one ack is not enough" (inbox t 2) (Msg.Rsp Msg.RspWT);
  rsp t ~from:1 ~kind:Msg.Ack ~line:9 ~mask:full ~txn:inv1.Msg.txn ();
  ignore (expect_kind ~what:"write completes" (inbox t 2) (Msg.Rsp Msg.RspWT));
  check_bool "line back to V" true (Llc.line_state t.llc ~line:9 = Some State.L_V);
  check_bool "no sharers left" true (Llc.sharers t.llc ~line:9 = []);
  check_bool "value" true (Llc.peek_word t.llc (Addr.make ~line:9 ~word:0) = Some 1234)

(* --- ReqWB ----------------------------------------------------------------------- *)

let wb_from_owner_merges () =
  let t = setup () in
  ignore (req t ~from:0 ~kind:Msg.ReqO ~line:11 ~mask:(Mask.of_list [ 0; 1 ]) ());
  clear_inboxes t;
  ignore
    (req t ~from:0 ~kind:Msg.ReqWB ~line:11 ~mask:(Mask.of_list [ 0; 1 ])
       ~payload:(Msg.Data [| 10; 11 |])
       ());
  ignore (expect_kind ~what:"wb ack" (inbox t 0) (Msg.Rsp Msg.RspWB));
  check_bool "ownership returned" true (Mask.is_empty (Llc.owned_mask t.llc ~line:11));
  check_bool "data merged" true
    (Llc.peek_word t.llc (Addr.make ~line:11 ~word:0) = Some 10
    && Llc.peek_word t.llc (Addr.make ~line:11 ~word:1) = Some 11)

let wb_from_non_owner_dropped () =
  let t = setup () in
  ignore (req t ~from:0 ~kind:Msg.ReqO ~line:11 ~mask:(w 0) ());
  (* Ownership races away to device 1. *)
  ignore (req t ~from:1 ~kind:Msg.ReqO ~line:11 ~mask:(w 0) ());
  clear_inboxes t;
  (* Device 0's stale write-back must be acked but ignored. *)
  ignore
    (req t ~from:0 ~kind:Msg.ReqWB ~line:11 ~mask:(w 0)
       ~payload:(Msg.Data [| 666 |])
       ());
  ignore (expect_kind ~what:"still acked" (inbox t 0) (Msg.Rsp Msg.RspWB));
  check_bool "owner unchanged" true
    (Llc.owner_of t.llc (Addr.make ~line:11 ~word:0) = Some 1);
  check_bool "stale data dropped" true
    (Llc.peek_word t.llc (Addr.make ~line:11 ~word:0) <> Some 666)

let wb_for_absent_line_acked () =
  let t = setup () in
  ignore
    (req t ~from:0 ~kind:Msg.ReqWB ~line:50 ~mask:(w 0)
       ~payload:(Msg.Data [| 1 |])
       ());
  ignore (expect_kind ~what:"acked" (inbox t 0) (Msg.Rsp Msg.RspWB));
  check_bool "not allocated" true (Llc.line_state t.llc ~line:50 = None)

(* --- capacity: eviction and purge -------------------------------------------------- *)

let eviction_writes_back_dirty () =
  let t = setup ~sets:1 ~ways:2 () in
  ignore
    (req t ~from:0 ~kind:Msg.ReqWT ~line:1 ~mask:(w 0)
       ~payload:(Msg.Data [| 77 |]) ());
  ignore (req t ~from:0 ~kind:Msg.ReqV ~line:2 ~mask:full ());
  (* Third line in a 2-way set evicts the LRU (line 1, dirty). *)
  ignore (req t ~from:0 ~kind:Msg.ReqV ~line:3 ~mask:full ());
  check_bool "victim gone" true (Llc.line_state t.llc ~line:1 = None);
  check_int "dirty data reached memory" 77
    (Dram.peek_word t.dram (Addr.make ~line:1 ~word:0))

let eviction_purges_owned_victim () =
  let t = setup ~sets:1 ~ways:2 () in
  ignore (req t ~from:0 ~kind:Msg.ReqO ~line:1 ~mask:(w 0) ());
  ignore (req t ~from:1 ~kind:Msg.ReqO ~line:2 ~mask:(w 0) ());
  clear_inboxes t;
  (* Allocating line 3 must first revoke a victim's owner. *)
  ignore (req t ~from:2 ~kind:Msg.ReqV ~line:3 ~mask:full ());
  expect_no_kind ~what:"fill waits for purge" (inbox t 2) (Msg.Rsp Msg.RspV);
  let rvko = expect_kind ~what:"revoke victim owner" (inbox t 0) (Msg.Probe Msg.RvkO) in
  rsp t ~from:0 ~kind:Msg.RspRvkO ~line:1 ~mask:(w 0)
    ~payload:(Msg.Data [| 42 |]) ~txn:rvko.Msg.txn ();
  ignore (expect_kind ~what:"fill proceeds" (inbox t 2) (Msg.Rsp Msg.RspV));
  check_int "revoked data written back" 42
    (Dram.peek_word t.dram (Addr.make ~line:1 ~word:0))

(* --- blocked-queue ordering --------------------------------------------------------- *)

let blocked_requests_replay_in_order () =
  let t = setup () in
  ignore (req t ~from:0 ~kind:Msg.ReqOdata ~line:12 ~mask:(w 0) ());
  clear_inboxes t;
  (* Block the line with an LLC atomic needing the owner's data. *)
  let _ = req t ~from:1 ~kind:Msg.ReqWTdata ~line:12 ~mask:(w 0) ~amo:(Amo.Add 1) () in
  let rvko = expect_kind ~what:"rvko" (inbox t 0) (Msg.Probe Msg.RvkO) in
  (* Queue two writes while blocked. *)
  ignore
    (req t ~from:2 ~kind:Msg.ReqWT ~line:12 ~mask:(w 1)
       ~payload:(Msg.Data [| 1 |]) ());
  ignore
    (req t ~from:2 ~kind:Msg.ReqWT ~line:12 ~mask:(w 1)
       ~payload:(Msg.Data [| 2 |]) ());
  rsp t ~from:0 ~kind:Msg.RspRvkO ~line:12 ~mask:(w 0)
    ~payload:(Msg.Data [| 5 |]) ~txn:rvko.Msg.txn ();
  (* Replay preserved order: the final value is the second write. *)
  check_bool "last write wins" true
    (Llc.peek_word t.llc (Addr.make ~line:12 ~word:1) = Some 2);
  check_int "both acked" 2
    (List.length
       (List.filter (fun (m : Msg.t) -> m.Msg.kind = Msg.Rsp Msg.RspWT) (inbox t 2)))

(* --- crossing write-back (III-C case 2) ---------------------------------------------- *)

let crossing_wb_satisfies_revocation () =
  let t = setup () in
  ignore (req t ~from:0 ~kind:Msg.ReqOdata ~line:13 ~mask:(w 0) ());
  clear_inboxes t;
  let _ = req t ~from:1 ~kind:Msg.ReqWTdata ~line:13 ~mask:(w 0) ~amo:(Amo.Add 1) () in
  let rvko = expect_kind ~what:"rvko sent" (inbox t 0) (Msg.Probe Msg.RvkO) in
  (* The owner's eviction write-back crosses the RvkO and carries the data. *)
  ignore
    (req t ~from:0 ~kind:Msg.ReqWB ~line:13 ~mask:(w 0)
       ~payload:(Msg.Data [| 30 |]) ());
  let done_ = expect_kind ~what:"atomic unblocked by WB" (inbox t 1) (Msg.Rsp Msg.RspWTdata) in
  check_int "data came from the WB" 30 (List.hd (payload_list done_));
  (* The late data-less RspRvkO is ignored as a duplicate. *)
  rsp t ~from:0 ~kind:Msg.RspRvkO ~line:13 ~mask:(w 0) ~txn:rvko.Msg.txn ();
  check_bool "value intact" true
    (Llc.peek_word t.llc (Addr.make ~line:13 ~word:0) = Some 31)

let partial_rvko_responses_accumulate () =
  (* An owner may answer a multi-word revocation in parts (a word mid-RMW
     is surrendered late); the LLC must merge every part. *)
  let t = setup () in
  ignore (req t ~from:0 ~kind:Msg.ReqO ~line:14 ~mask:(Mask.of_list [ 0; 1 ]) ());
  clear_inboxes t;
  let _ = req t ~from:1 ~kind:Msg.ReqWTdata ~line:14 ~mask:(w 0) ~amo:(Amo.Add 1) () in
  let rvko = expect_kind ~what:"rvko both words" (inbox t 0) (Msg.Probe Msg.RvkO) in
  check_int "covers full holding" 2 (Mask.count rvko.Msg.mask);
  rsp t ~from:0 ~kind:Msg.RspRvkO ~line:14 ~mask:(w 1)
    ~payload:(Msg.Data [| 100 |]) ~txn:rvko.Msg.txn ();
  expect_no_kind ~what:"still waiting for word 0" (inbox t 1) (Msg.Rsp Msg.RspWTdata);
  rsp t ~from:0 ~kind:Msg.RspRvkO ~line:14 ~mask:(w 0)
    ~payload:(Msg.Data [| 200 |]) ~txn:rvko.Msg.txn ();
  let rsp_ = expect_kind ~what:"now complete" (inbox t 1) (Msg.Rsp Msg.RspWTdata) in
  check_int "old value from second part" 200 (List.hd (payload_list rsp_));
  check_bool "both parts merged" true
    (Llc.peek_word t.llc (Addr.make ~line:14 ~word:1) = Some 100
    && Llc.peek_word t.llc (Addr.make ~line:14 ~word:0) = Some 201)

(* --- at-most-once reply cache ---------------------------------------------- *)

(* Any fault plan arms the reply cache; this one never fires.  A second
   arrival of a guarded request's txn re-sends the recorded responses
   instead of re-running the transition; an unguarded ReqV is reprocessed. *)
let reply_cache_replays_guarded () =
  let t = setup ~fault:(Spandex_net.Fault.uniform ~seed:1 ()) () in
  let replayed () =
    Spandex_util.Stats.get (Llc.bank_stats t.llc 0) "replayed"
  in
  let txn = req t ~from:0 ~kind:Msg.ReqOdata ~line:3 ~mask:full () in
  let first = inbox t 0 in
  ignore (expect_kind ~what:"grant" first (Msg.Rsp Msg.RspOdata));
  let state () =
    ( Llc.line_state t.llc ~line:3,
      Llc.owned_mask t.llc ~line:3,
      Llc.owner_of t.llc (Addr.make ~line:3 ~word:0),
      Llc.sharers t.llc ~line:3 )
  in
  let before = state () in
  clear_inboxes t;
  ignore (req t ~txn ~from:0 ~kind:Msg.ReqOdata ~line:3 ~mask:full ());
  let again = inbox t 0 in
  check_int "same response count" (List.length first) (List.length again);
  check_bool "recorded responses re-sent" true (List.for_all2 ( == ) first again);
  check_int "replayed once" 1 (replayed ());
  check_bool "state unchanged" true (state () = before);
  clear_inboxes t;
  let reqv_count () =
    Spandex_util.Stats.get (Llc.bank_stats t.llc 0) "req.ReqV"
  in
  let txn = req t ~from:1 ~kind:Msg.ReqV ~line:4 ~mask:full () in
  ignore (expect_kind ~what:"first ReqV" (inbox t 1) (Msg.Rsp Msg.RspV));
  let seen = reqv_count () in
  clear_inboxes t;
  ignore (req t ~txn ~from:1 ~kind:Msg.ReqV ~line:4 ~mask:full ());
  let m = expect_kind ~what:"ReqV processed again" (inbox t 1) (Msg.Rsp Msg.RspV) in
  check_int "fresh data response" 16 (List.length (payload_list m));
  check_int "ReqV not replayed" 1 (replayed ());
  check_int "ReqV handled again" (seen + 1) (reqv_count ())

(* --- allocation pin ({!Helpers.check_flat}) ------------------------------- *)

(* [n] one-word ReqV hits on a resident line with no owned word, each
   answered before the next; the requester drops the responses.  The same
   immutable request record is sent every time.  A warm-up round first
   grows the engine's event free-list and delivery queue. *)
let reqv_hit_words n =
  let t = setup () in
  ignore (req t ~from:0 ~kind:Msg.ReqV ~line:3 ~mask:full ());
  Network.register t.net ~id:0 ignore;
  let m =
    Msg.make ~txn:1 ~kind:(Msg.Req Msg.ReqV) ~line:3 ~mask:(w 2) ~src:0
      ~dst:llc_id ()
  in
  let round () =
    for _ = 1 to n do
      Network.send t.net m;
      run t
    done
  in
  round ();
  let w0 = Gc.minor_words () in
  round ();
  Gc.minor_words () -. w0

(* The response is its record (header and 11 fields), its [Data] box and
   its one-word array: 16 words.  The option that carries the payload into
   [Home.respond]'s optional argument adds 2. *)
let reqv_hit_allocates_response_only () =
  Helpers.check_flat ~per_item:18 "LLC ReqV hit" ~words:reqv_hit_words

let tests =
  [
    test "reqv_hit_allocates_response_only" reqv_hit_allocates_response_only;
    test "reqv_fills_from_memory" reqv_fills_from_memory;
    test "reqv_no_state_change" reqv_no_state_change;
    test "reqv_forwards_owned_words" reqv_forwards_owned_words;
    test "reqv_self_owned_demand_nacked" reqv_self_owned_demand_nacked;
    test "reqo_grants_word_ownership" reqo_grants_word_ownership;
    test "reqo_transfer_nonblocking" reqo_transfer_nonblocking;
    test "reqodata_carries_data" reqodata_carries_data;
    test "reqodata_forwards_to_owner" reqodata_forwards_to_owner;
    test "reqwt_writes_through" reqwt_writes_through;
    test "reqwt_revokes_owner_fig1d" reqwt_revokes_owner_fig1d;
    test "reqwtdata_atomic_at_llc" reqwtdata_atomic_at_llc;
    test "reqwtdata_blocks_on_rvko" reqwtdata_blocks_on_rvko;
    test "reqs_opt3_treated_as_ownership" reqs_opt3_treated_as_ownership;
    test "reqs_opt3_with_denovo_owner" reqs_opt3_with_denovo_owner;
    test "reqs_opt1_with_mesi_owner" reqs_opt1_with_mesi_owner;
    test "reqs_opt1_when_already_shared" reqs_opt1_when_already_shared;
    test "write_to_shared_collects_acks" write_to_shared_collects_acks;
    test "wb_from_owner_merges" wb_from_owner_merges;
    test "wb_from_non_owner_dropped" wb_from_non_owner_dropped;
    test "wb_for_absent_line_acked" wb_for_absent_line_acked;
    test "eviction_writes_back_dirty" eviction_writes_back_dirty;
    test "eviction_purges_owned_victim" eviction_purges_owned_victim;
    test "blocked_requests_replay_in_order" blocked_requests_replay_in_order;
    test "crossing_wb_satisfies_revocation" crossing_wb_satisfies_revocation;
    test "partial_rvko_responses_accumulate" partial_rvko_responses_accumulate;
    test "reply_cache_replays_guarded" reply_cache_replays_guarded;
  ]
