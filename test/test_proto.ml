(* Unit and property tests for spandex_proto. *)

module Addr = Spandex_proto.Addr
module Amo = Spandex_proto.Amo
module Msg = Spandex_proto.Msg
module Linedata = Spandex_proto.Linedata
module Txn = Spandex_proto.Txn
module Mask = Spandex_util.Mask

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ----- Addr ----------------------------------------------------------------- *)

let addr_geometry () =
  check_int "line bytes" 64 Addr.line_bytes;
  check_int "words per line" 16 Addr.words_per_line;
  let b = Addr.line_of_word_index 35 in
  check_int "flat line" 2 b.Addr.line;
  check_int "flat word" 3 b.Addr.word

let addr_invalid () =
  Alcotest.check_raises "word out of range" (Assert_failure ("lib/proto/addr.ml", 10, 2))
    (fun () -> ignore (Addr.make ~line:0 ~word:16))

(* ----- Amo ------------------------------------------------------------------ *)

let amo_semantics () =
  check_int "add new" 7 (fst (Amo.apply (Amo.Add 3) 4));
  check_int "add returns old" 4 (snd (Amo.apply (Amo.Add 3) 4));
  check_int "exch new" 9 (fst (Amo.apply (Amo.Exch 9) 4));
  check_int "exch old" 4 (snd (Amo.apply (Amo.Exch 9) 4));
  check_int "max up" 8 (fst (Amo.apply (Amo.Max 8) 4));
  check_int "max keeps" 9 (fst (Amo.apply (Amo.Max 4) 9));
  check_int "read keeps" 4 (fst (Amo.apply Amo.Read 4));
  check_int "cas hit" 5 (fst (Amo.apply (Amo.Cas { expected = 4; desired = 5 }) 4));
  check_int "cas miss" 4 (fst (Amo.apply (Amo.Cas { expected = 3; desired = 5 }) 4));
  check_int "cas returns old" 4 (snd (Amo.apply (Amo.Cas { expected = 4; desired = 5 }) 4))

(* ----- Msg ------------------------------------------------------------------ *)

let msg_flits () =
  let mk ?payload mask =
    Msg.make ~txn:1 ~kind:(Msg.Req Msg.ReqV) ~line:0 ~mask ?payload ~src:0
      ~dst:1 ()
  in
  check_int "control is 1 flit" 1 (Msg.flits (mk (Mask.singleton 0)));
  let data n = Msg.Data (Array.make n 0) in
  check_int "1 word data" 2 (Msg.flits (mk ~payload:(data 1) (Mask.singleton 0)));
  check_int "4 words = 16B = 1 data flit" 2
    (Msg.flits (mk ~payload:(data 4) (Mask.of_list [ 0; 1; 2; 3 ])));
  check_int "5 words = 2 data flits" 3
    (Msg.flits (mk ~payload:(data 5) (Mask.of_list [ 0; 1; 2; 3; 4 ])));
  check_int "full line = 4 data flits" 5
    (Msg.flits (mk ~payload:(data 16) Addr.full_mask))

let msg_categories () =
  let cat k = Msg.category k in
  Alcotest.(check bool) "reqv" true (cat (Msg.Req Msg.ReqV) = Msg.Cat_ReqV);
  Alcotest.(check bool) "nack counts as reqv" true (cat (Msg.Rsp Msg.Nack) = Msg.Cat_ReqV);
  Alcotest.(check bool) "wt and wt+data together" true
    (cat (Msg.Req Msg.ReqWT) = cat (Msg.Req Msg.ReqWTdata));
  Alcotest.(check bool) "o and o+data together" true
    (cat (Msg.Req Msg.ReqO) = cat (Msg.Req Msg.ReqOdata));
  Alcotest.(check bool) "probes with acks" true
    (cat (Msg.Probe Msg.Inv) = cat (Msg.Rsp Msg.Ack));
  Alcotest.(check bool) "rvko rsp is probe traffic" true
    (cat (Msg.Rsp Msg.RspRvkO) = Msg.Cat_Probe);
  check_int "six categories" 6 (List.length Msg.all_categories)

let msg_validation () =
  (* Payload length must match the mask. *)
  let bad () =
    ignore
      (Msg.make ~txn:1 ~kind:(Msg.Rsp Msg.RspV) ~line:0
         ~mask:(Mask.of_list [ 0; 1 ])
         ~payload:(Msg.Data [| 1 |])
         ~src:0 ~dst:1 ())
  in
  (try
     bad ();
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  (* Demand must be a subset of the mask. *)
  (try
     ignore
       (Msg.make ~txn:1 ~kind:(Msg.Req Msg.ReqV) ~line:0
          ~mask:(Mask.singleton 1) ~demand:(Mask.singleton 2) ~src:0 ~dst:1 ());
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let msg_defaults () =
  let m =
    Msg.make ~txn:9 ~kind:(Msg.Req Msg.ReqO) ~line:3 ~mask:(Mask.singleton 2)
      ~src:4 ~dst:5 ()
  in
  check_int "requestor defaults to src" 4 m.Msg.requestor;
  check_bool "demand defaults to mask" true (Mask.equal m.Msg.demand m.Msg.mask);
  check_bool "not forwarded" false m.Msg.fwd

(* ----- Linedata ------------------------------------------------------------- *)

let linedata_pack_unpack () =
  let full = Array.init 16 (fun i -> 100 + i) in
  let mask = Mask.of_list [ 1; 5; 13 ] in
  let packed = Linedata.pack ~mask ~full in
  Alcotest.(check (array int)) "packed order" [| 101; 105; 113 |] packed;
  let dst = Array.make 16 0 in
  Linedata.unpack_into ~mask ~values:packed ~full:dst;
  check_int "unpacked 5" 105 dst.(5);
  check_int "untouched" 0 dst.(0)

let linedata_roundtrip_prop =
  QCheck2.Test.make ~name:"pack_unpack_roundtrip"
    QCheck2.Gen.(int_bound 0xFFFF)
    (fun mask ->
      let full = Array.init 16 (fun i -> i * 31) in
      let packed = Linedata.pack ~mask ~full in
      let dst = Array.make 16 (-1) in
      Linedata.unpack_into ~mask ~values:packed ~full:dst;
      Mask.fold mask ~init:true ~f:(fun acc w -> acc && dst.(w) = full.(w)))

let linedata_init_deterministic () =
  check_int "stable" (Linedata.init_word ~line:7 ~word:3)
    (Linedata.init_word ~line:7 ~word:3);
  check_bool "distinct words differ" true
    (Linedata.init_word ~line:7 ~word:3 <> Linedata.init_word ~line:7 ~word:4);
  Alcotest.(check (array int)) "fresh_line matches init_word"
    (Array.init 16 (fun w -> Linedata.init_word ~line:9 ~word:w))
    (Linedata.fresh_line ~line:9)

(* ----- Txn -------------------------------------------------------------------- *)

let txn_unique () =
  Txn.reset ();
  let a = Txn.fresh () and b = Txn.fresh () in
  check_bool "distinct" true (a <> b);
  Txn.reset ();
  check_int "reset restarts" a (Txn.fresh ())

let tests =
  [
    test "addr_geometry" addr_geometry;
    test "amo_semantics" amo_semantics;
    test "msg_flits" msg_flits;
    test "msg_categories" msg_categories;
    test "msg_validation" msg_validation;
    test "msg_defaults" msg_defaults;
    test "linedata_pack_unpack" linedata_pack_unpack;
    test "linedata_init_deterministic" linedata_init_deterministic;
    test "txn_unique" txn_unique;
  ]
  @ [ QCheck_alcotest.to_alcotest ~long:false linedata_roundtrip_prop ]
