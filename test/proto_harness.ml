(* Harness for protocol unit tests: a real engine/network/LLC with scripted
   fake devices whose messages are captured rather than auto-answered, so
   each test controls both sides of every transaction. *)

module Engine = Spandex_sim.Engine
module Network = Spandex_net.Network
module Msg = Spandex_proto.Msg
module Addr = Spandex_proto.Addr
module Mask = Spandex_util.Mask
module Llc = Spandex.Llc
module Backing = Spandex.Backing
module Dram = Spandex_mem.Dram

type fake = { id : Msg.device_id; inbox : Msg.t list ref }

type t = {
  engine : Engine.t;
  net : Network.t;
  dram : Dram.t;
  llc : Llc.t;
  devices : fake array;
}

let llc_id = 10

(* Three fake devices (0, 1, 2); which of them are MESI caches is
   configurable to steer the ReqS policy. *)
let setup_with_policy ?(is_mesi = fun _ -> false) ?(sets = 16)
    ?(ways = 4) ?(reqs_policy = Llc.Reqs_auto) ?fault () =
  Spandex_proto.Txn.reset ();
  let engine = Engine.create () in
  let net = Network.create ?fault engine (Network.flat_topology ~latency:2) in
  let dram = Dram.create engine ~latency:5 ~service_interval:0 in
  let llc =
    Llc.create ~name:"llc" engine net
      (Backing.dram engine dram)
      { Llc.llc_id; banks = 1; sets; ways; access_latency = 1; is_mesi; reqs_policy }
  in
  let devices =
    Array.init 3 (fun id ->
        let inbox = ref [] in
        Network.register net ~id (fun m -> inbox := m :: !inbox);
        { id; inbox })
  in
  { engine; net; dram; llc; devices }

let setup ?is_mesi ?sets ?ways ?fault () =
  setup_with_policy ?is_mesi ?sets ?ways ?fault ()

let run t = ignore (Engine.run_all ~strict:false t.engine)

let inbox t i = List.rev !((t.devices.(i)).inbox)
let clear_inboxes t = Array.iter (fun d -> d.inbox := []) t.devices

(* Send a device-originated message into the system and settle. *)
let send ?demand ?payload ?amo ?txn t ~from ~kind ~line ~mask () =
  let txn = match txn with Some x -> x | None -> Spandex_proto.Txn.fresh () in
  Network.send t.net
    (Msg.make ~txn ~kind ~line ~mask ?demand ?payload ?amo ~src:from
       ~dst:llc_id ());
  run t;
  txn

let req ?demand ?payload ?amo ?txn t ~from ~kind ~line ~mask () =
  send ?demand ?payload ?amo ?txn t ~from ~kind:(Msg.Req kind) ~line ~mask ()

let rsp ?payload ?txn t ~from ~kind ~line ~mask () =
  ignore (send ?payload ?txn t ~from ~kind:(Msg.Rsp kind) ~line ~mask ())

(* Message-list assertions. *)
let kinds msgs = List.map (fun (m : Msg.t) -> m.Msg.kind) msgs

let find_kind msgs kind =
  List.find_opt (fun (m : Msg.t) -> m.Msg.kind = kind) msgs

let expect_kind ~what msgs kind =
  match find_kind msgs kind with
  | Some m -> m
  | None ->
    Alcotest.failf "%s: expected %s among [%s]" what
      (Format.asprintf "%a" Msg.pp_kind kind)
      (String.concat "; "
         (List.map (Format.asprintf "%a" Msg.pp_kind) (kinds msgs)))

let expect_no_kind ~what msgs kind =
  if find_kind msgs kind <> None then
    Alcotest.failf "%s: did not expect %s" what
      (Format.asprintf "%a" Msg.pp_kind kind)

let payload_list (m : Msg.t) =
  match m.Msg.payload with
  | Msg.Data values -> Array.to_list values
  | Msg.No_data -> []

let init_word = Spandex_proto.Linedata.init_word
