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
(* [Data_pooled] payloads are OWNED by the message: the array came from the
   per-domain size-bucketed array pool (or was freshly minted for it) and is
   returned to that pool when the message is recycled.  Use it only for
   arrays created expressly for this message ({!pooled_pack},
   {!pooled_copy}); payloads that alias longer-lived storage must stay
   [Data]. *)
type payload = No_data | Data of int array | Data_pooled of int array

type t = {
  mutable txn : int;
  mutable kind : kind;
  mutable line : int;
  mutable mask : Mask.t;
  mutable demand : Mask.t;
  mutable payload : payload;
  mutable src : device_id;
  mutable dst : device_id;
  mutable requestor : device_id;
  mutable fwd : bool;
  mutable amo : Amo.t option;
  mutable pooled : bool;
}

(* Per-message construction checks (payload length, demand ⊆ mask) run on
   every send.  They are on by default everywhere; SPANDEX_CHECKS=0/false/off
   in the environment turns them off, and [set_checks] is for tests.  Read
   eagerly at module init and only mutated before domains spawn, so
   parallel sweeps see a settled value. *)
let checks =
  ref
    (match Sys.getenv_opt "SPANDEX_CHECKS" with
    | Some ("0" | "false" | "off") -> false
    | Some _ | None -> true)

let set_checks on = checks := on
let checks_enabled () = !checks

(* A settled record shared as a placeholder slot filler (event pools, freed
   pool slots).  Never delivered, never mutated. *)
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
    pooled = false;
  }

(* Per-domain free-list of message records.  Pooling is opt-in
   ([set_pooling true], done by [Run.simulate]):
   hand-driven test harnesses stash delivered messages in inbox lists and
   must keep the allocate-per-message behaviour.  When enabled, [make]
   pops a recycled record and overwrites every field; the engine recycles
   a message right after its [Handle] dispatch returns unless some
   component called [keep] on it (home nodes queue/capture requests they
   will replay later; the fault path and the model checker re-deliver). *)
type pool = {
  mutable slots : t array;
  mutable len : int;
  mutable enabled : bool;
  arrs : int array array array;
      (* payload arrays bucketed by length (index 1..words_per_line). *)
  arr_len : int array;
}

let pool_key : pool Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        slots = [||];
        len = 0;
        enabled = false;
        arrs = Array.make (Addr.words_per_line + 1) [||];
        arr_len = Array.make (Addr.words_per_line + 1) 0;
      })

let arr_bucket_cap = 32

let arr_push p (arr : int array) =
  let n = Array.length arr in
  if n > 0 && n <= Addr.words_per_line then begin
    let cap = Array.length p.arrs.(n) in
    if p.arr_len.(n) = cap && cap < arr_bucket_cap then begin
      let grown = Array.make (max 8 (2 * cap)) [||] in
      Array.blit p.arrs.(n) 0 grown 0 cap;
      p.arrs.(n) <- grown
    end;
    if p.arr_len.(n) < Array.length p.arrs.(n) then begin
      p.arrs.(n).(p.arr_len.(n)) <- arr;
      p.arr_len.(n) <- p.arr_len.(n) + 1
    end
  end

let arr_alloc n =
  let p = Domain.DLS.get pool_key in
  if p.enabled && n > 0 && n <= Addr.words_per_line && p.arr_len.(n) > 0
  then begin
    p.arr_len.(n) <- p.arr_len.(n) - 1;
    let arr = p.arrs.(n).(p.arr_len.(n)) in
    p.arrs.(n).(p.arr_len.(n)) <- [||];
    arr
  end
  else Array.make n 0

let pooled_single v =
  let out = arr_alloc 1 in
  out.(0) <- v;
  Data_pooled out

let pooled_copy values =
  let n = Array.length values in
  let out = arr_alloc n in
  Array.blit values 0 out 0 n;
  Data_pooled out

let pooled_pack ~mask ~full =
  let n = Mask.count mask in
  let out = arr_alloc n in
  let i = ref 0 in
  let w = ref 0 in
  while !i < n do
    if Mask.mem mask !w then begin
      out.(!i) <- full.(!w);
      incr i
    end;
    incr w
  done;
  Data_pooled out

let set_pooling on =
  let p = Domain.DLS.get pool_key in
  p.enabled <- on

let pooling_enabled () = (Domain.DLS.get pool_key).enabled

let keep t = t.pooled <- false

let recycle t =
  if t.pooled then begin
    t.pooled <- false;
    let p = Domain.DLS.get pool_key in
    (* Drop heap references so a parked free slot cannot leak a payload;
       an owned payload array goes back to its size bucket. *)
    (match t.payload with Data_pooled arr -> arr_push p arr | _ -> ());
    t.payload <- No_data;
    t.amo <- None;
    if p.enabled then begin
      if p.len = Array.length p.slots then begin
        let cap = max 64 (2 * p.len) in
        let slots = Array.make cap dummy in
        Array.blit p.slots 0 slots 0 p.len;
        p.slots <- slots
      end;
      p.slots.(p.len) <- t;
      p.len <- p.len + 1
    end
  end

let make ~txn ~kind ~line ~mask ?demand ?(payload = No_data) ~src ~dst
    ?requestor ?(fwd = false) ?amo () =
  let demand = match demand with Some d -> d | None -> mask in
  if !checks then begin
    (match payload with
    | No_data -> ()
    | Data values | Data_pooled values ->
      if Array.length values <> Mask.count mask then
        invalid_arg
          (Printf.sprintf "Msg.make: %d values for a %d-word mask"
             (Array.length values) (Mask.count mask)));
    if not (Mask.subset demand mask) then
      invalid_arg "Msg.make: demand not a subset of mask"
  end;
  let requestor = match requestor with Some r -> r | None -> src in
  let p = Domain.DLS.get pool_key in
  if p.enabled then
    if p.len > 0 then begin
      p.len <- p.len - 1;
      let t = p.slots.(p.len) in
      p.slots.(p.len) <- dummy;
      if !checks && t.pooled then
        invalid_arg "Msg pool: free slot still marked live";
      t.txn <- txn;
      t.kind <- kind;
      t.line <- line;
      t.mask <- mask;
      t.demand <- demand;
      t.payload <- payload;
      t.src <- src;
      t.dst <- dst;
      t.requestor <- requestor;
      t.fwd <- fwd;
      t.amo <- amo;
      t.pooled <- true;
      t
    end
    else
      {
        txn;
        kind;
        line;
        mask;
        demand;
        payload;
        src;
        dst;
        requestor;
        fwd;
        amo;
        pooled = true;
      }
  else
    {
      txn;
      kind;
      line;
      mask;
      demand;
      payload;
      src;
      dst;
      requestor;
      fwd;
      amo;
      pooled = false;
    }

let rsp_of_req = function
  | ReqV -> RspV
  | ReqS -> RspS
  | ReqWT -> RspWT
  | ReqO -> RspO
  | ReqWTdata -> RspWTdata
  | ReqOdata -> RspOdata
  | ReqWB -> RspWB

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

let all_categories =
  [ Cat_ReqV; Cat_ReqS; Cat_ReqWT; Cat_ReqO; Cat_WB; Cat_Probe ]

let flit_bytes = 16

let flits t =
  match t.payload with
  | No_data -> 1
  | Data values | Data_pooled values ->
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
    | Data values | Data_pooled values ->
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
  | Data values | Data_pooled values ->
    Fp.int fp (Array.length values);
    Fp.array fp values
