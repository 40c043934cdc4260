module Mask = Spandex_util.Mask

type device_id = int

type req_kind = ReqV | ReqS | ReqWT | ReqO | ReqWTdata | ReqOdata | ReqWB

type rsp_kind =
  | RspV
  | RspS
  | RspWT
  | RspO
  | RspWTdata
  | RspOdata
  | RspWB
  | RspRvkO
  | Ack
  | Nack

type probe_kind = RvkO | Inv
type kind = Req of req_kind | Rsp of rsp_kind | Probe of probe_kind

(* Each arm returns a structured constant, so a sender that knows only the
   sub-kind reaches a shared [kind] block without boxing a fresh one. *)
let req = function
  | ReqV -> Req ReqV
  | ReqS -> Req ReqS
  | ReqWT -> Req ReqWT
  | ReqO -> Req ReqO
  | ReqWTdata -> Req ReqWTdata
  | ReqOdata -> Req ReqOdata
  | ReqWB -> Req ReqWB

let rsp = function
  | RspV -> Rsp RspV
  | RspS -> Rsp RspS
  | RspWT -> Rsp RspWT
  | RspO -> Rsp RspO
  | RspWTdata -> Rsp RspWTdata
  | RspOdata -> Rsp RspOdata
  | RspWB -> Rsp RspWB
  | RspRvkO -> Rsp RspRvkO
  | Ack -> Rsp Ack
  | Nack -> Rsp Nack

let probe = function RvkO -> Probe RvkO | Inv -> Probe Inv

type payload = No_data | Data of int array

type t = {
  txn : int;
  kind : kind;
  line : int;
  mask : Mask.t;
  demand : Mask.t;
  payload : payload;
  src : device_id;
  dst : device_id;
  requestor : device_id;
  fwd : bool;
  amo : Amo.t option;
}

(* Per-message construction checks (payload length, demand ⊆ mask) run on
   every send.  They are on by default everywhere; SPANDEX_CHECKS=0/false/off
   in the environment turns them off.  Read once at module init, so
   parallel sweeps see a settled value. *)
let checks =
  match Sys.getenv_opt "SPANDEX_CHECKS" with
  | Some ("0" | "false" | "off") -> false
  | Some _ | None -> true

let checks_enabled () = checks

(* A placeholder record for empty event slots; never delivered. *)
let dummy =
  {
    txn = -1;
    kind = Rsp Ack;
    line = 0;
    mask = Mask.empty;
    demand = Mask.empty;
    payload = No_data;
    src = -1;
    dst = -1;
    requestor = -1;
    fwd = false;
    amo = None;
  }

let make ~txn ~kind ~line ~mask ?(demand = mask) ?(payload = No_data) ~src
    ~dst ?(requestor = src) ?(fwd = false) ?amo () =
  if checks then begin
    (match payload with
    | No_data -> ()
    | Data values ->
      if Array.length values <> Mask.count mask then
        invalid_arg
          (Printf.sprintf "Msg.make: %d values for a %d-word mask"
             (Array.length values) (Mask.count mask)));
    if not (Mask.subset demand mask) then
      invalid_arg "Msg.make: demand not a subset of mask"
  end;
  { txn; kind; line; mask; demand; payload; src; dst; requestor; fwd; amo }

let kind_needs_data = function
  | Req (ReqV | ReqOdata | ReqS) | Probe RvkO -> true
  | Req (ReqO | ReqWT | ReqWTdata | ReqWB) | Probe Inv | Rsp _ -> false

type category = Cat_ReqV | Cat_ReqS | Cat_ReqWT | Cat_ReqO | Cat_WB | Cat_Probe

let category = function
  | Req ReqV | Rsp RspV | Rsp Nack -> Cat_ReqV
  | Req ReqS | Rsp RspS -> Cat_ReqS
  | Req ReqWT | Req ReqWTdata | Rsp RspWT | Rsp RspWTdata -> Cat_ReqWT
  | Req ReqO | Req ReqOdata | Rsp RspO | Rsp RspOdata -> Cat_ReqO
  | Req ReqWB | Rsp RspWB -> Cat_WB
  | Probe RvkO | Probe Inv | Rsp RspRvkO | Rsp Ack -> Cat_Probe

let category_name = function
  | Cat_ReqV -> "ReqV"
  | Cat_ReqS -> "ReqS"
  | Cat_ReqWT -> "ReqWT"
  | Cat_ReqO -> "ReqO"
  | Cat_WB -> "WB"
  | Cat_Probe -> "Probe"

let category_index = function
  | Cat_ReqV -> 0
  | Cat_ReqS -> 1
  | Cat_ReqWT -> 2
  | Cat_ReqO -> 3
  | Cat_WB -> 4
  | Cat_Probe -> 5

let all_categories =
  [ Cat_ReqV; Cat_ReqS; Cat_ReqWT; Cat_ReqO; Cat_WB; Cat_Probe ]

let flit_bytes = 16

let flits t =
  match t.payload with
  | No_data -> 1
  | Data values ->
    let bytes = Array.length values * Addr.word_bytes in
    1 + ((bytes + flit_bytes - 1) / flit_bytes)

let req_kind_name = function
  | ReqV -> "ReqV"
  | ReqS -> "ReqS"
  | ReqWT -> "ReqWT"
  | ReqO -> "ReqO"
  | ReqWTdata -> "ReqWT+data"
  | ReqOdata -> "ReqO+data"
  | ReqWB -> "ReqWB"

let rsp_kind_name = function
  | RspV -> "RspV"
  | RspS -> "RspS"
  | RspWT -> "RspWT"
  | RspO -> "RspO"
  | RspWTdata -> "RspWT+data"
  | RspOdata -> "RspO+data"
  | RspWB -> "RspWB"
  | RspRvkO -> "RspRvkO"
  | Ack -> "Ack"
  | Nack -> "Nack"

let probe_kind_name = function RvkO -> "RvkO" | Inv -> "Inv"

let kind_name = function
  | Req k -> req_kind_name k
  | Rsp k -> rsp_kind_name k
  | Probe k -> probe_kind_name k

let pp_kind fmt k = Format.pp_print_string fmt (kind_name k)

(* Dense indexings so per-kind tables (traffic counters, interned stat
   keys) can be arrays instead of string-keyed maps. *)

let req_kind_index = function
  | ReqV -> 0
  | ReqS -> 1
  | ReqWT -> 2
  | ReqO -> 3
  | ReqWTdata -> 4
  | ReqOdata -> 5
  | ReqWB -> 6

let all_req_kinds = [ ReqV; ReqS; ReqWT; ReqO; ReqWTdata; ReqOdata; ReqWB ]

let num_kinds = 19

let kind_index = function
  | Req k -> req_kind_index k
  | Rsp RspV -> 7
  | Rsp RspS -> 8
  | Rsp RspWT -> 9
  | Rsp RspO -> 10
  | Rsp RspWTdata -> 11
  | Rsp RspOdata -> 12
  | Rsp RspWB -> 13
  | Rsp RspRvkO -> 14
  | Rsp Ack -> 15
  | Rsp Nack -> 16
  | Probe RvkO -> 17
  | Probe Inv -> 18

let all_kinds =
  List.map (fun k -> Req k) all_req_kinds
  @ List.map
      (fun k -> Rsp k)
      [ RspV; RspS; RspWT; RspO; RspWTdata; RspOdata; RspWB; RspRvkO; Ack; Nack ]
  @ [ Probe RvkO; Probe Inv ]

let pp fmt t =
  let data =
    match t.payload with
    | No_data -> if t.fwd then " fwd" else ""
    | Data values ->
      let vs =
        if Array.length values <= 4 then
          String.concat ","
            (List.map string_of_int (Array.to_list values))
        else Printf.sprintf "%d words" (Array.length values)
      in
      Printf.sprintf "%s +data[%s]" (if t.fwd then " fwd" else "") vs
  in
  Format.fprintf fmt "[txn=%d %a line=%d mask=%a %d->%d req=%d%s]" t.txn
    pp_kind t.kind t.line
    (Mask.pp ~words:Addr.words_per_line)
    t.mask t.src t.dst t.requestor data

module Fp = Spandex_util.Fingerprint

(* Canonical message encoding for the model checker's state fingerprint:
   everything that determines the receiver's behavior, with the txn id
   remapped through the fingerprint's canonical table. *)
let fingerprint fp t =
  Fp.tag fp "m";
  Fp.txn fp t.txn;
  Fp.int fp (kind_index t.kind);
  Fp.int fp t.line;
  Fp.int fp (t.mask :> int);
  Fp.int fp (t.demand :> int);
  Fp.int fp t.src;
  Fp.int fp t.dst;
  Fp.int fp t.requestor;
  Fp.bool fp t.fwd;
  (match t.amo with
  | None -> Fp.int fp (-1)
  | Some Amo.Read -> Fp.int fp 0
  | Some (Amo.Exch v) ->
    Fp.int fp 1;
    Fp.int fp v
  | Some (Amo.Add v) ->
    Fp.int fp 2;
    Fp.int fp v
  | Some (Amo.Max v) ->
    Fp.int fp 3;
    Fp.int fp v
  | Some (Amo.Cas { expected; desired }) ->
    Fp.int fp 4;
    Fp.int fp expected;
    Fp.int fp desired);
  match t.payload with
  | No_data -> Fp.int fp 0
  | Data values ->
    Fp.int fp (Array.length values);
    Fp.array fp values
