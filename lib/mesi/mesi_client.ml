module Stats = Spandex_util.Stats
module Engine = Spandex_sim.Engine
module Msg = Spandex_proto.Msg
module Addr = Spandex_proto.Addr
module Network = Spandex_net.Network
module Mshr = Spandex_mem.Mshr
module Backing = Spandex.Backing
module Chassis = Spandex_l1.Chassis

type config = {
  id : Msg.device_id;
  dir_id : Msg.device_id;
  dir_banks : int;
  hit_latency : int;
}

type pstate = P_I | P_S | P_M

type acq = {
  a_line : int;
  a_k : int array option -> excl:bool -> unit;
}

type wb = { w_line : int; w_values : int array; w_k : unit -> unit }
type outstanding = Acq of acq | Wb of wb

type t = {
  ch : outstanding Chassis.t;
  cfg : config;
  name : string;
  states : (int, pstate) Hashtbl.t;
  (* Interned counters for the per-request fast paths. *)
  k_gets : Stats.key;
  k_getm : Stats.key;
  k_putm : Stats.key;
  mutable parked : int;  (* requests waiting for an MSHR slot. *)
  mutable recall_handler : Backing.recall_handler;
}

let state t line = Option.value ~default:P_I (Hashtbl.find_opt t.states line)

let set_state t line = function
  | P_I -> Hashtbl.remove t.states line
  | s -> Hashtbl.replace t.states line s

(* Closed MSHR predicates on a line ({!Mshr.find_first_exn}). *)
let acq_on line _ = function Acq a -> a.a_line = line | Wb _ -> false
let wb_on line _ = function Wb b -> b.w_line = line | Acq _ -> false

let pending_acq_for t line =
  Mshr.exists t.ch.Chassis.outstanding line 0 ~f:acq_on

let wb_for t line =
  match Mshr.find_first_exn t.ch.Chassis.outstanding line 0 ~f:wb_on with
  | Wb b -> Some b
  | _ -> None
  | exception Not_found -> None

(* ----- Backing interface ----------------------------------------------------- *)

(* Take an MSHR for [entry] and [issue] its request; while every slot is
   busy the request stays [parked], retried as responses free slots. *)
let rec fire t entry issue =
  match Mshr.alloc t.ch.Chassis.outstanding entry with
  | Some txn ->
    t.parked <- t.parked - 1;
    issue txn
  | None ->
    Stats.incr t.ch.Chassis.stats "mshr_stall";
    Engine.schedule t.ch.Chassis.engine ~delay:4 (fun () -> fire t entry issue)

let park t entry issue =
  t.parked <- t.parked + 1;
  fire t entry issue

let acquire t ~line ~excl ~k =
  match state t line with
  | P_M -> k None ~excl:true
  | P_S when not excl -> k None ~excl:false
  | P_S | P_I ->
    let kind = if excl then Msg.ReqOdata else Msg.ReqS in
    Stats.bump t.ch.Chassis.stats (if excl then t.k_getm else t.k_gets);
    park t (Acq { a_line = line; a_k = k }) (fun txn ->
        Chassis.request t.ch ~txn ~kind ~line ~mask:Addr.full_mask ())

let writeback t ~line ~data ~dirty ~k =
  match state t line with
  | P_M -> (
    (* PutM returns ownership (and data, even when clean: the directory
       believes we might have dirtied it). *)
    ignore dirty;
    set_state t line P_I;
    Stats.bump t.ch.Chassis.stats t.k_putm;
    park t
      (Wb { w_line = line; w_values = Array.copy data; w_k = k })
      (fun txn ->
        Chassis.request t.ch ~txn ~kind:Msg.ReqWB ~line ~mask:Addr.full_mask
          ~payload:(Msg.Data (Array.copy data)) ()))
  | P_S ->
    (* Shared lines drop silently; a later Inv finds nothing and is Acked. *)
    set_state t line P_I;
    Stats.incr t.ch.Chassis.stats "silent_drop";
    Engine.schedule t.ch.Chassis.engine ~delay:0 k
  | P_I -> Engine.schedule t.ch.Chassis.engine ~delay:0 k

(* ----- directory-initiated messages ------------------------------------------- *)

let handle t (msg : Msg.t) =
  match msg.Msg.kind with
  | Msg.Probe Msg.Inv ->
    (* The L2 (and everything under it) must drop the line. *)
    if pending_acq_for t msg.Msg.line then begin
      (* §III-C: an Inv racing a pending upgrade is acknowledged at once;
         the upgrade's response will carry fresh data. *)
      Stats.incr t.ch.Chassis.stats "inv_mid_upgrade";
      set_state t msg.Msg.line P_I;
      Chassis.reply t.ch msg ~kind:Msg.Ack ~dst:msg.Msg.src
        ~mask:msg.Msg.mask ()
    end
    else begin
      set_state t msg.Msg.line P_I;
      t.recall_handler ~line:msg.Msg.line ~kind:Backing.Recall_excl
        ~k:(fun _ ->
          Chassis.reply t.ch msg ~kind:Msg.Ack ~dst:msg.Msg.src
            ~mask:msg.Msg.mask ())
    end
  | Msg.Req Msg.ReqS when msg.Msg.fwd -> (
    let from_record (b : wb) =
      Chassis.reply t.ch msg ~kind:Msg.RspS ~dst:msg.Msg.requestor
        ~mask:msg.Msg.mask
        ~payload:(Msg.Data (Array.copy b.w_values))
        ();
      Chassis.reply t.ch msg ~kind:Msg.RspRvkO ~dst:msg.Msg.src
        ~mask:msg.Msg.mask ()
    in
    match wb_for t msg.Msg.line with
    | Some b -> from_record b
    | None ->
      (* The parent state changes only once the recall resolves: a purge
         already in flight must still see P_M when it writes back. *)
      t.recall_handler ~line:msg.Msg.line ~kind:Backing.Recall_shared
        ~k:(fun result ->
          match (result, wb_for t msg.Msg.line) with
          | Some (data, _dirty), _ ->
            set_state t msg.Msg.line P_S;
            Chassis.reply t.ch msg ~kind:Msg.RspS ~dst:msg.Msg.requestor
              ~mask:msg.Msg.mask
              ~payload:(Msg.Data (Array.copy data))
              ();
            Chassis.reply t.ch msg ~kind:Msg.RspRvkO ~dst:msg.Msg.src
              ~mask:msg.Msg.mask
              ~payload:(Msg.Data data) ()
          | None, Some b ->
            (* The recall was queued behind a purge that evicted the line;
               the write-back record created by that eviction has the data. *)
            from_record b
          | None, None ->
            failwith "Mesi_client: forwarded ReqS for line not held"))
  | Msg.Req Msg.ReqOdata when msg.Msg.fwd -> (
    let from_record (b : wb) =
      Chassis.reply t.ch msg ~kind:Msg.RspOdata ~dst:msg.Msg.requestor
        ~mask:msg.Msg.mask
        ~payload:(Msg.Data (Array.copy b.w_values))
        ();
      Chassis.reply t.ch msg ~kind:Msg.RspRvkO ~dst:msg.Msg.src
        ~mask:msg.Msg.mask ()
    in
    match wb_for t msg.Msg.line with
    | Some b -> from_record b
    | None ->
      t.recall_handler ~line:msg.Msg.line ~kind:Backing.Recall_excl
        ~k:(fun result ->
          match (result, wb_for t msg.Msg.line) with
          | Some (data, _dirty), _ ->
            set_state t msg.Msg.line P_I;
            Chassis.reply t.ch msg ~kind:Msg.RspOdata ~dst:msg.Msg.requestor
              ~mask:msg.Msg.mask
              ~payload:(Msg.Data data) ();
            Chassis.reply t.ch msg ~kind:Msg.RspRvkO ~dst:msg.Msg.src
              ~mask:msg.Msg.mask ()
          | None, Some b -> from_record b
          | None, None ->
            failwith "Mesi_client: forwarded ReqO+data for line not held"))
  | Msg.Probe Msg.RvkO -> (
    match wb_for t msg.Msg.line with
    | Some _ ->
      Chassis.reply t.ch msg ~kind:Msg.RspRvkO ~dst:msg.Msg.src
        ~mask:msg.Msg.mask ()
    | None ->
      t.recall_handler ~line:msg.Msg.line ~kind:Backing.Recall_excl
        ~k:(fun result ->
          set_state t msg.Msg.line P_I;
          match result with
          | Some (data, _dirty) ->
            Chassis.reply t.ch msg ~kind:Msg.RspRvkO ~dst:msg.Msg.src
              ~mask:msg.Msg.mask
              ~payload:(Msg.Data data) ()
          | None ->
            (* If a purge-eviction raced us, its PutM carries the data. *)
            Chassis.reply t.ch msg ~kind:Msg.RspRvkO ~dst:msg.Msg.src
              ~mask:msg.Msg.mask ()))
  | Msg.Rsp _ -> (
    match Mshr.find t.ch.Chassis.outstanding ~txn:msg.Msg.txn with
    | None -> Stats.incr t.ch.Chassis.stats "orphan_rsp"
    | Some (Acq a) -> (
      Chassis.free_txn t.ch ~txn:msg.Msg.txn;
      match (msg.Msg.kind, msg.Msg.payload) with
      | Msg.Rsp Msg.RspS, Msg.Data values ->
        set_state t a.a_line P_S;
        a.a_k (Some values) ~excl:false
      | Msg.Rsp Msg.RspOdata, Msg.Data values ->
        set_state t a.a_line P_M;
        a.a_k (Some values) ~excl:true
      | _ -> failwith "Mesi_client: unexpected acquire response")
    | Some (Wb b) ->
      (match msg.Msg.kind with
      | Msg.Rsp Msg.RspWB -> ()
      | _ -> failwith "Mesi_client: unexpected write-back response");
      Chassis.free_txn t.ch ~txn:msg.Msg.txn;
      b.w_k ())
  | Msg.Req _ ->
    failwith (Format.asprintf "Mesi_client: unexpected message %a" Msg.pp msg)

let create ~name engine net cfg =
  let ch =
    (* No store buffer at this level: the chassis's is a 1-entry stub that
       stays empty; the parent caches do the buffering. *)
    Chassis.create engine net ~id:cfg.id ~home_id:cfg.dir_id
      ~home_banks:cfg.dir_banks ~hit_latency:cfg.hit_latency ~coalesce_window:0
      ~mshrs:256 ~sb_capacity:1 ~device:name
      ~describe:(function
        | Acq a -> (a.a_line, "acquire (GetS/GetM)")
        | Wb w -> (w.w_line, "write-back (PutM)"))
      ~is_write:(function Wb _ -> true | Acq _ -> false)
  in
  let t =
    {
      ch;
      cfg;
      name;
      states = Hashtbl.create 1024;
      k_gets = Stats.key ch.Chassis.stats "gets";
      k_getm = Stats.key ch.Chassis.stats "getm";
      k_putm = Stats.key ch.Chassis.stats "putm";
      parked = 0;
      recall_handler = (fun ~line:_ ~kind:_ ~k -> k None);
    }
  in
  Engine.register_pending_source engine (fun () ->
      if t.parked = 0 then []
      else
        [
          {
            Engine.pw_device = name;
            pw_txn = -1;
            pw_line = -1;
            pw_what =
              Printf.sprintf "%d request(s) parked for an MSHR" t.parked;
          };
        ]);
  Network.register net ~id:cfg.id (fun msg -> handle t msg);
  t

let backing t =
  {
    Backing.acquire = (fun ~line ~excl ~k -> acquire t ~line ~excl ~k);
    writeback = (fun ~line ~data ~dirty ~k -> writeback t ~line ~data ~dirty ~k);
    set_recall_handler = (fun h -> t.recall_handler <- h);
  }

(* ----- model-checker introspection ----------------------------------------- *)

module Fp = Spandex_util.Fingerprint

let fingerprint t fp =
  Fp.tag fp t.name;
  Fp.int fp t.cfg.id;
  Fp.int fp t.parked;
  let lines =
    Hashtbl.fold
      (fun line s acc ->
        (line, (match s with P_I -> 0 | P_S -> 1 | P_M -> 2)) :: acc)
      t.states []
    |> List.sort compare
  in
  Fp.list fp
    (fun fp (line, s) ->
      Fp.int fp line;
      Fp.int fp s)
    lines;
  Chassis.fingerprint t.ch fp
    ~key:(function Acq a -> (a.a_line * 2) + 0 | Wb w -> (w.w_line * 2) + 1)
    ~payload:(fun fp -> function
      | Acq a ->
        Fp.tag fp "A";
        Fp.int fp a.a_line
      | Wb w ->
        Fp.tag fp "W";
        Fp.int fp w.w_line;
        Fp.array fp w.w_values)

let part t =
  Chassis.part t.ch
    ~aux:("spandex_l2_parked", "parked", fun () -> t.parked)
    ~fingerprint:(fingerprint t) None
