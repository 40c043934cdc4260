module Mask = Spandex_util.Mask
module Stats = Spandex_util.Stats
module Engine = Spandex_sim.Engine
module Trace = Spandex_sim.Trace
module Msg = Spandex_proto.Msg
module Addr = Spandex_proto.Addr
module Linedata = Spandex_proto.Linedata
module Txn = Spandex_proto.Txn
module Network = Spandex_net.Network
module Frames = Spandex_mem.Banked_frame
module Dram = Spandex_mem.Dram

type config = {
  dir_id : Msg.device_id;  (* first bank endpoint. *)
  banks : int;
  sets : int;
  ways : int;
  access_latency : int;
}

let bank_of cfg line = cfg.dir_id + (line mod cfg.banks)

type dir_state = D_V | D_S of Msg.device_id list | D_M of Msg.device_id

type pending =
  | Fetching
  | Collecting_acks of { mutable acks_left : int; resume : unit -> unit }
  | Awaiting of {
      from : Msg.device_id;
      expect_data : bool;
      mutable satisfied : bool;
      resume : unit -> unit;
    }

type meta = {
  mutable dstate : dir_state;
  data : int array;
  mutable dirty : bool;
  mutable pending : pending option;
  mutable blocked : Msg.t list;
}

(* Per-bank mutable state (cf. Llc.bank): each directory bank has its own
   stats, probe-txn allocator and trace names, and touches only lines ≡
   bank (mod banks) — whose DRAM accesses route to that bank's channel.
   Probe ids are drawn per bank in bank arrival order; the committed
   goldens pin them. *)
type bank = {
  bk_txns : Txn.allocator;  (* probe ids: drawn in bank arrival order. *)
  bk_stats : Stats.t;
  bk_req_keys : Stats.key array;  (* "req.<kind>" by [Msg.req_kind_index]. *)
  bk_trace : Trace.t;
  bk_n_replay : int;  (* interned trace names (0 on a disabled sink). *)
}

type t = {
  cfg : config;
  engine : Engine.t;
  dram : Dram.t;
  frame : meta Frames.t;
  banks : bank array;
  (* At-most-once reply cache, armed only under fault injection: recorded
     responses per txn for non-idempotent request kinds, replayed when a
     duplicate or retried request arrives (cf. Llc.replay).  One table per
     bank — a line maps to exactly one bank. *)
  replay : (int, Msg.t list ref) Hashtbl.t array option;
}

let bank t line = t.banks.(line mod t.cfg.banks)

let send t (msg : Msg.t) =
  Engine.send_later t.engine ~delay:t.cfg.access_latency msg

let respond t (req : Msg.t) ~kind ?payload () =
  let msg =
    Msg.make ~txn:req.Msg.txn ~kind:(Msg.Rsp kind) ~line:req.Msg.line
      ~mask:req.Msg.mask ?payload ~src:(bank_of t.cfg req.Msg.line)
      ~dst:req.Msg.requestor ()
  in
  (match t.replay with
  | Some tables -> (
    match
      Hashtbl.find_opt tables.(req.Msg.line mod t.cfg.banks) req.Msg.txn
    with
    | Some sent -> sent := msg :: !sent
    | None -> ())
  | None -> ());
  send t msg

let respond_data t req meta ~kind =
  respond t req ~kind ~payload:(Msg.pooled_copy meta.data) ()

let forward t (req : Msg.t) ~kind ~dst =
  send t
    (Msg.make ~txn:req.Msg.txn ~kind:(Msg.Req kind) ~line:req.Msg.line
       ~mask:Addr.full_mask ~src:(bank_of t.cfg req.Msg.line) ~dst
       ~requestor:req.Msg.requestor ~fwd:true ())

let probe t ~kind ~dst ~line =
  send t
    (Msg.make
       ~txn:(Txn.next (bank t line).bk_txns)
       ~kind:(Msg.Probe kind) ~line ~mask:Addr.full_mask
       ~src:(bank_of t.cfg line) ~dst ())

let payload_values (msg : Msg.t) =
  match msg.Msg.payload with
  | Msg.Data v | Msg.Data_pooled v -> v
  | Msg.No_data -> invalid_arg "Mesi_dir: request missing data payload"

let rec handle t (msg : Msg.t) =
  match msg.Msg.kind with
  | Msg.Req k -> handle_req t msg k
  | Msg.Rsp k -> handle_rsp t msg k
  | Msg.Probe _ -> failwith "Mesi_dir: received a probe"

and handle_req t (msg : Msg.t) kind =
  let bk = bank t msg.Msg.line in
  Stats.bump bk.bk_stats bk.bk_req_keys.(Msg.req_kind_index kind);
  match Frames.find_exn t.frame ~line:msg.Msg.line with
  | exception Not_found ->
    if kind = Msg.ReqWB then begin
      Stats.incr bk.bk_stats "wb_stale";
      respond t msg ~kind:Msg.RspWB ()
    end
    else begin
      Stats.incr bk.bk_stats "miss";
      allocate_and_fetch t msg
    end
  | meta -> (
    Frames.touch t.frame ~line:msg.Msg.line;
    match meta.pending with
    | Some (Awaiting a) when kind = Msg.ReqWB && a.from = msg.Msg.src && not a.satisfied
      ->
      (* The owner's eviction crossed our forward/recall; the PutM carries
         the data. *)
      apply_wb t meta msg;
      respond t msg ~kind:Msg.RspWB ();
      a.satisfied <- true;
      meta.pending <- None;
      a.resume ()
    | Some _ ->
      Stats.incr bk.bk_stats "blocked";
      Msg.keep msg;
      meta.blocked <- meta.blocked @ [ msg ]
    | None -> dispatch t meta msg kind)

and dispatch t meta (msg : Msg.t) kind =
  let bk = bank t msg.Msg.line in
  Stats.incr bk.bk_stats "hit";
  match (kind, meta.dstate) with
  (* --- GetS ------------------------------------------------------------ *)
  | Msg.ReqS, D_V ->
    (* Unshared: grant Exclusive (standard MESI E optimization). *)
    Stats.incr bk.bk_stats "e_grant";
    meta.dstate <- D_M msg.Msg.requestor;
    respond_data t msg meta ~kind:Msg.RspOdata
  | Msg.ReqS, D_S sharers ->
    (* A requesting sharer is rare (it would have hit locally); skip the
       filter copy unless it is actually present. *)
    let others =
      if List.memq msg.Msg.requestor sharers then
        List.filter (fun d -> d <> msg.Msg.requestor) sharers
      else sharers
    in
    meta.dstate <- D_S (msg.Msg.requestor :: others);
    respond_data t msg meta ~kind:Msg.RspS
  | Msg.ReqS, D_M owner ->
    (* Blocking: downgrade the owner, who sends data to the requestor and a
       write-back copy here. *)
    Stats.incr bk.bk_stats "fwd_gets";
    (* The resume closure captures [msg]. *)
    Msg.keep msg;
    meta.pending <-
      Some
        (Awaiting
           {
             from = owner;
             expect_data = true;
             satisfied = false;
             resume =
               (fun () ->
                 meta.dstate <- D_S [ owner; msg.Msg.requestor ];
                 after_pending t msg.Msg.line);
           });
    forward t msg ~kind:Msg.ReqS ~dst:owner
  (* --- GetM ------------------------------------------------------------ *)
  | Msg.ReqOdata, D_V ->
    meta.dstate <- D_M msg.Msg.requestor;
    respond_data t msg meta ~kind:Msg.RspOdata
  | Msg.ReqOdata, D_S sharers ->
    let targets =
      if List.memq msg.Msg.requestor sharers then
        List.filter (fun d -> d <> msg.Msg.requestor) sharers
      else sharers
    in
    let grant () =
      meta.dstate <- D_M msg.Msg.requestor;
      respond_data t msg meta ~kind:Msg.RspOdata
    in
    if targets = [] then grant ()
    else begin
      Stats.incr bk.bk_stats "inv_bursts";
      Msg.keep msg;
      meta.pending <-
        Some
          (Collecting_acks
             {
               acks_left = List.length targets;
               resume =
                 (fun () ->
                   grant ();
                   after_pending t msg.Msg.line);
             });
      List.iter
        (fun d ->
          Stats.incr bk.bk_stats "inv_sent";
          probe t ~kind:Msg.Inv ~dst:d ~line:msg.Msg.line)
        targets
    end
  | Msg.ReqOdata, D_M owner when owner = msg.Msg.requestor ->
    (* Shouldn't arise (the owner writes locally), but answer with data. *)
    respond_data t msg meta ~kind:Msg.RspOdata
  | Msg.ReqOdata, D_M owner ->
    (* Blocking transfer: the old owner supplies data to the requestor and
       confirms to the directory. *)
    Stats.incr bk.bk_stats "fwd_getm";
    Msg.keep msg;
    meta.pending <-
      Some
        (Awaiting
           {
             from = owner;
             expect_data = false;
             satisfied = false;
             resume =
               (fun () ->
                 meta.dstate <- D_M msg.Msg.requestor;
                 after_pending t msg.Msg.line);
           });
    forward t msg ~kind:Msg.ReqOdata ~dst:owner
  (* --- PutM ------------------------------------------------------------ *)
  | Msg.ReqWB, _ ->
    apply_wb t meta msg;
    respond t msg ~kind:Msg.RspWB ()
  | (Msg.ReqV | Msg.ReqWT | Msg.ReqO | Msg.ReqWTdata), _ ->
    failwith
      (Format.asprintf "Mesi_dir: unsupported request %a (MESI is RfO-only)"
         Msg.pp msg)

and apply_wb t meta (msg : Msg.t) =
  match meta.dstate with
  | D_M owner when owner = msg.Msg.src ->
    Stats.incr (bank t msg.Msg.line).bk_stats "wb_live";
    let values = payload_values msg in
    Linedata.unpack_into ~mask:msg.Msg.mask ~values ~full:meta.data;
    meta.dirty <- true;
    meta.dstate <- D_V
  | D_M _ | D_V | D_S _ -> Stats.incr (bank t msg.Msg.line).bk_stats "wb_stale"

and handle_rsp t (msg : Msg.t) kind =
  match Frames.find_exn t.frame ~line:msg.Msg.line with
  | exception Not_found ->
    Stats.incr (bank t msg.Msg.line).bk_stats "rsp_orphan"
  | meta -> (
    match (kind, meta.pending) with
    | Msg.Ack, Some (Collecting_acks c) ->
      c.acks_left <- c.acks_left - 1;
      if c.acks_left = 0 then begin
        meta.pending <- None;
        c.resume ()
      end
    | Msg.RspRvkO, Some (Awaiting a) when a.from = msg.Msg.src ->
      if a.satisfied then Stats.incr (bank t msg.Msg.line).bk_stats "rvko_dup"
      else begin
        (if a.expect_data then
           match msg.Msg.payload with
           | Msg.Data values | Msg.Data_pooled values ->
             Linedata.unpack_into ~mask:msg.Msg.mask ~values ~full:meta.data;
             meta.dirty <- true
           | Msg.No_data ->
             (* Data already arrived in a crossing PutM. *)
             ());
        a.satisfied <- true;
        meta.pending <- None;
        a.resume ()
      end
    | (Msg.Ack | Msg.RspRvkO), _ ->
      Stats.incr (bank t msg.Msg.line).bk_stats "rsp_orphan"
    | _ -> failwith "Mesi_dir: unexpected response kind")

and after_pending t line =
  match Frames.find_exn t.frame ~line with
  | exception Not_found -> ()
  | meta ->
    if meta.pending = None then begin
      match meta.blocked with
      | [] -> ()
      | msgs ->
        meta.blocked <- [];
        List.iter (fun m -> handle t m) msgs
    end

and can_evict ~line:_ meta =
  meta.pending = None && meta.blocked = []
  && match meta.dstate with D_V -> true | D_S _ | D_M _ -> false

and allocate_and_fetch t (msg : Msg.t) =
  let line = msg.Msg.line in
  let bk = bank t line in
  let meta =
    {
      dstate = D_V;
      data = Array.make Addr.words_per_line 0;
      dirty = false;
      pending = None;
      blocked = [];
    }
  in
  let start_fetch () =
    meta.pending <- Some Fetching;
    Msg.keep msg;
    meta.blocked <- [ msg ];
    Dram.read_line t.dram ~line ~k:(fun values ->
        Array.blit values 0 meta.data 0 Addr.words_per_line;
        meta.pending <- None;
        after_pending t line)
  in
  match Frames.insert t.frame ~line meta ~can_evict with
  | Spandex_mem.Cache_frame.Inserted -> start_fetch ()
  | Spandex_mem.Cache_frame.Evicted (vline, vmeta) ->
    Stats.incr bk.bk_stats "evict";
    if vmeta.dirty then
      Dram.write_words t.dram ~line:vline ~mask:Addr.full_mask
        ~values:vmeta.data;
    start_fetch ()
  | Spandex_mem.Cache_frame.No_room -> begin
    match find_recall_victim t line with
    | Some (vline, vmeta) ->
      Stats.incr bk.bk_stats "evict_recall";
      Msg.keep msg;
      recall t vline vmeta ~k:(fun () -> handle t msg)
    | None ->
      Stats.incr bk.bk_stats "alloc_stall";
      Msg.keep msg;
      Engine.schedule t.engine ~delay:8 (fun () -> handle t msg)
  end

and find_recall_victim t line =
  Frames.lru_matching t.frame ~set_line:line ~f:(fun ~line:_ m ->
      m.pending = None)

(* Forcibly reclaim a line for eviction: invalidate sharers or revoke the
   owner, write back, drop, then replay its queued requests. *)
and recall t line meta ~k =
  let finish () =
    let queued = meta.blocked in
    meta.blocked <- [];
    if meta.dirty then
      Dram.write_words t.dram ~line ~mask:Addr.full_mask ~values:meta.data;
    Frames.remove t.frame ~line;
    k ();
    List.iter (fun m -> handle t m) queued
  in
  match meta.dstate with
  | D_V -> finish ()
  | D_S sharers ->
    meta.dstate <- D_V;
    meta.pending <-
      Some (Collecting_acks { acks_left = List.length sharers; resume = finish });
    List.iter
      (fun d ->
        Stats.incr (bank t line).bk_stats "inv_sent";
        probe t ~kind:Msg.Inv ~dst:d ~line)
      sharers
  | D_M owner ->
    (* dstate stays D_M so a crossing PutM from the owner is merged. *)
    meta.pending <-
      Some
        (Awaiting { from = owner; expect_data = true; satisfied = false; resume = finish });
    Stats.incr (bank t line).bk_stats "rvko_sent";
    probe t ~kind:Msg.RvkO ~dst:owner ~line

(* Request kinds whose reprocessing is NOT idempotent at the directory:
   a duplicate ReqS or ReqOdata for a txn already served would re-run
   state transitions (sharer insertion, owner transfer) against a world
   the original already changed.  ReqWB reprocessing is idempotent (the
   owner check rejects stale PutMs). *)
let replay_guarded = function
  | Msg.ReqS | Msg.ReqOdata -> true
  | Msg.ReqV | Msg.ReqWT | Msg.ReqO | Msg.ReqWTdata | Msg.ReqWB -> false

(* Network-facing entry point.  Under fault injection, guarded requests
   are deduplicated by txn id: the first arrival is marked and handled,
   later arrivals replay whatever responses the original produced. *)
let arrival t (msg : Msg.t) =
  match t.replay with
  | None -> handle t msg
  | Some tables -> (
    match msg.Msg.kind with
    | Msg.Req kind when (not msg.Msg.fwd) && replay_guarded kind -> (
      let bk = bank t msg.Msg.line in
      let table = tables.(msg.Msg.line mod t.cfg.banks) in
      match Hashtbl.find_opt table msg.Msg.txn with
      | Some sent ->
        Stats.incr bk.bk_stats "replayed";
        if Trace.on bk.bk_trace then
          Trace.instant bk.bk_trace ~time:(Engine.now t.engine)
            ~dev:(bank_of t.cfg msg.Msg.line) ~name:bk.bk_n_replay
            ~txn:msg.Msg.txn ~arg:(List.length !sent);
        List.iter (fun m -> send t m) (List.rev !sent)
      | None ->
        Hashtbl.add table msg.Msg.txn (ref []);
        handle t msg)
    | _ -> handle t msg)

let create engine net dram (cfg : config) =
  let make_bank b =
    let stats = Stats.create () in
    let trace = Engine.trace engine in
    {
      bk_txns = Txn.allocator ~id:(cfg.dir_id + b);
      bk_stats = stats;
      bk_req_keys =
        (let keys = Array.make 7 (Stats.key stats "req.ReqV") in
         List.iter
           (fun k ->
             keys.(Msg.req_kind_index k) <-
               Stats.key stats ("req." ^ Msg.req_kind_name k))
           Msg.all_req_kinds;
         keys);
      bk_trace = trace;
      bk_n_replay = Trace.name trace "dir.replay";
    }
  in
  let t =
    {
      cfg;
      engine;
      dram;
      frame = Frames.create ~banks:cfg.banks ~sets:cfg.sets ~ways:cfg.ways;
      banks = Array.init cfg.banks make_bank;
      replay =
        (if Network.faults_enabled net then
           Some (Array.init cfg.banks (fun _ -> Hashtbl.create 256))
         else None);
    }
  in
  for b = 0 to cfg.banks - 1 do
    Network.register net ~id:(cfg.dir_id + b) (fun msg -> arrival t msg)
  done;
  Array.iteri
    (fun b _ ->
      let device = Printf.sprintf "dir.b%d" b in
      Engine.register_pending_source engine (fun () ->
          Frames.fold_bank t.frame b ~init:[] ~f:(fun acc ~line m ->
              let item what =
                {
                  Engine.pw_device = device;
                  pw_txn = -1;
                  pw_line = line;
                  pw_what = what;
                }
              in
              let acc =
                match m.pending with
                | None -> acc
                | Some Fetching -> item "fetching from DRAM" :: acc
                | Some (Collecting_acks c) ->
                  item (Printf.sprintf "collecting %d inv ack(s)" c.acks_left)
                  :: acc
                | Some (Awaiting { from; _ }) ->
                  item (Printf.sprintf "awaiting owner %d" from) :: acc
              in
              if m.blocked = [] then acc
              else
                item
                  (Printf.sprintf "%d blocked request(s)"
                     (List.length m.blocked))
                :: acc)))
    t.banks;
  t

let bank_count t = t.cfg.banks

(* The pending/blocked gauges feed the bank's trace counter tracks; dev is
   the bank's network endpoint. *)
let bank_register_metrics t ~device b reg =
  let module Metrics = Spandex_obs.Metrics in
  let bk = t.banks.(b) in
  let labels = [ ("bank", string_of_int b); ("device", device) ] in
  let dev = t.cfg.dir_id + b in
  Metrics.gauge reg ~name:"spandex_dir_lines" ~labels
    ~help:"resident directory lines" (fun () -> Frames.count_bank t.frame b);
  Metrics.gauge reg ~name:"spandex_dir_pending" ~labels
    ~track:(dev, "dir.pending")
    ~help:"lines with an in-flight directory transaction" (fun () ->
      Frames.fold_bank t.frame b ~init:0 ~f:(fun p ~line:_ m ->
          if m.pending = None then p else p + 1));
  Metrics.gauge reg ~name:"spandex_dir_blocked" ~labels
    ~track:(dev, "dir.blocked")
    ~help:"requests parked behind a pending line" (fun () ->
      Frames.fold_bank t.frame b ~init:0 ~f:(fun bl ~line:_ m ->
          bl + List.length m.blocked));
  Metrics.counter reg ~name:"spandex_dir_replayed_total" ~labels
    ~help:"duplicate requests answered from the reply cache (fault runs)"
    (fun () -> Stats.get bk.bk_stats "replayed")

let bank_quiescent t b =
  Frames.fold_bank t.frame b ~init:true ~f:(fun acc ~line:_ m ->
      acc && m.pending = None && m.blocked = [])

let quiescent t =
  let ok = ref true in
  for b = 0 to t.cfg.banks - 1 do
    ok := !ok && bank_quiescent t b
  done;
  !ok

let bank_stats t b = t.banks.(b).bk_stats

let line_state t ~line =
  Option.map (fun m -> m.dstate) (Frames.find t.frame ~line)

let peek_word t { Addr.line; word } =
  Option.map (fun m -> m.data.(word)) (Frames.find t.frame ~line)

(* ----- model-checker introspection ----------------------------------------- *)

module Fp = Spandex_util.Fingerprint

let fingerprint t fp =
  Fp.tag fp "dir";
  let lines =
    Frames.fold t.frame ~init:[] ~f:(fun acc ~line m -> (line, m) :: acc)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Fp.int fp (List.length lines);
  List.iter
    (fun (line, m) ->
      Fp.int fp line;
      (match m.dstate with
      | D_V -> Fp.int fp 0
      | D_S sharers ->
        Fp.int fp 1;
        Fp.list fp Fp.int (List.sort compare sharers)
      | D_M owner ->
        Fp.int fp 2;
        Fp.int fp owner);
      (* Data is stale while a modified owner holds the line. *)
      (match m.dstate with D_M _ -> () | D_V | D_S _ -> Fp.array fp m.data);
      Fp.bool fp m.dirty;
      (match m.pending with
      | None -> Fp.tag fp "-"
      | Some Fetching -> Fp.tag fp "F"
      | Some (Collecting_acks c) ->
        Fp.tag fp "C";
        Fp.int fp c.acks_left
      | Some (Awaiting { from; expect_data; satisfied; _ }) ->
        Fp.tag fp "A";
        Fp.int fp from;
        Fp.bool fp expect_data;
        Fp.bool fp satisfied);
      Fp.list fp Msg.fingerprint m.blocked)
    lines;
  match t.replay with
  | None -> ()
  | Some tables ->
    let entries =
      Array.fold_left
        (fun acc table ->
          Hashtbl.fold (fun txn msgs acc -> (txn, !msgs) :: acc) table acc)
        [] tables
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    Fp.list fp
      (fun fp (txn, msgs) ->
        Fp.txn fp txn;
        Fp.list fp Msg.fingerprint msgs)
      entries

let owner_of t ~line =
  match line_state t ~line with Some (D_M o) -> Some o | _ -> None
