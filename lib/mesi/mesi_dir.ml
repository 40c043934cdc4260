module Mask = Spandex_util.Mask
module Stats = Spandex_util.Stats
module Engine = Spandex_sim.Engine
module Msg = Spandex_proto.Msg
module Addr = Spandex_proto.Addr
module Linedata = Spandex_proto.Linedata
module Frames = Spandex_mem.Cache_frame
module Dram = Spandex_mem.Dram
module Home = Spandex.Home

type config = {
  dir_id : Msg.device_id;  (* first bank endpoint. *)
  banks : int;
  sets : int;
  ways : int;
  access_latency : int;
}

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

(* The banked plumbing (cf. Llc) is the shared {!Home} layer; a bank
   touches only lines ≡ bank (mod banks), whose DRAM accesses route to
   that bank's channel. *)
type t = {
  engine : Engine.t;
  dram : Dram.t;
  home : meta Home.t;
  frame : meta Frames.t;
}

let stats t line = Home.stats t.home ~line

let respond t (req : Msg.t) ~kind ?payload () =
  Home.respond t.home req ~kind ~mask:req.Msg.mask ?payload ()

let respond_data t req meta ~kind =
  respond t req ~kind ~payload:(Msg.Data (Array.copy meta.data)) ()

let forward t req ~kind ~dst =
  Home.forward t.home req ~kind ~dst ~mask:Addr.full_mask ()

let probe t ~kind ~dst ~line =
  Home.probe t.home ~kind ~dst ~line ~mask:Addr.full_mask

let rec handle t (msg : Msg.t) =
  match msg.Msg.kind with
  | Msg.Req k -> handle_req t msg k
  | Msg.Rsp k -> handle_rsp t msg k
  | Msg.Probe _ -> failwith "Mesi_dir: received a probe"

and handle_req t (msg : Msg.t) kind =
  let st = stats t msg.Msg.line in
  Home.count_req t.home ~line:msg.Msg.line kind;
  match Frames.find_exn t.frame ~line:msg.Msg.line with
  | exception Not_found ->
    if kind = Msg.ReqWB then begin
      Stats.incr st "wb_stale";
      respond t msg ~kind:Msg.RspWB ()
    end
    else begin
      Stats.incr st "miss";
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
      Stats.incr st "blocked";
      meta.blocked <- meta.blocked @ [ msg ]
    | None -> dispatch t meta msg kind)

and dispatch t meta (msg : Msg.t) kind =
  let st = stats t msg.Msg.line in
  Stats.incr st "hit";
  match (kind, meta.dstate) with
  (* --- GetS ------------------------------------------------------------ *)
  | Msg.ReqS, D_V ->
    (* Unshared: grant Exclusive (standard MESI E optimization). *)
    Stats.incr st "e_grant";
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
    Stats.incr st "fwd_gets";
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
      Stats.incr st "inv_bursts";
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
          Stats.incr st "inv_sent";
          probe t ~kind:Msg.Inv ~dst:d ~line:msg.Msg.line)
        targets
    end
  | Msg.ReqOdata, D_M owner when owner = msg.Msg.requestor ->
    (* Shouldn't arise (the owner writes locally), but answer with data. *)
    respond_data t msg meta ~kind:Msg.RspOdata
  | Msg.ReqOdata, D_M owner ->
    (* Blocking transfer: the old owner supplies data to the requestor and
       confirms to the directory. *)
    Stats.incr st "fwd_getm";
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
    Stats.incr (stats t msg.Msg.line) "wb_live";
    let values = Home.payload msg in
    Linedata.unpack_into ~mask:msg.Msg.mask ~values ~full:meta.data;
    meta.dirty <- true;
    meta.dstate <- D_V
  | D_M _ | D_V | D_S _ -> Stats.incr (stats t msg.Msg.line) "wb_stale"

and handle_rsp t (msg : Msg.t) kind =
  match Frames.find_exn t.frame ~line:msg.Msg.line with
  | exception Not_found ->
    Stats.incr (stats t msg.Msg.line) "rsp_orphan"
  | meta -> (
    match (kind, meta.pending) with
    | Msg.Ack, Some (Collecting_acks c) ->
      c.acks_left <- c.acks_left - 1;
      if c.acks_left = 0 then begin
        meta.pending <- None;
        c.resume ()
      end
    | Msg.RspRvkO, Some (Awaiting a) when a.from = msg.Msg.src ->
      if a.satisfied then Stats.incr (stats t msg.Msg.line) "rvko_dup"
      else begin
        (if a.expect_data then
           match msg.Msg.payload with
           | Msg.Data values ->
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
      Stats.incr (stats t msg.Msg.line) "rsp_orphan"
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
  let st = stats t line in
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
    meta.blocked <- [ msg ];
    Dram.read_line t.dram ~line ~k:(fun values ->
        Array.blit values 0 meta.data 0 Addr.words_per_line;
        meta.pending <- None;
        after_pending t line)
  in
  match Frames.insert t.frame ~line meta ~can_evict with
  | Frames.Inserted -> start_fetch ()
  | Frames.Evicted (vline, vmeta) ->
    Stats.incr st "evict";
    if vmeta.dirty then
      Dram.write_words t.dram ~line:vline ~mask:Addr.full_mask
        ~values:vmeta.data;
    start_fetch ()
  | Frames.No_room -> begin
    match find_recall_victim t line with
    | Some (vline, vmeta) ->
      Stats.incr st "evict_recall";
      recall t vline vmeta ~k:(fun () -> handle t msg)
    | None ->
      Stats.incr st "alloc_stall";
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
        Stats.incr (stats t line) "inv_sent";
        probe t ~kind:Msg.Inv ~dst:d ~line)
      sharers
  | D_M owner ->
    (* dstate stays D_M so a crossing PutM from the owner is merged. *)
    meta.pending <-
      Some
        (Awaiting { from = owner; expect_data = true; satisfied = false; resume = finish });
    Stats.incr (stats t line) "rvko_sent";
    probe t ~kind:Msg.RvkO ~dst:owner ~line

(* Request kinds whose reprocessing is NOT idempotent at the directory,
   so the reply cache ({!Home.listen}) answers their duplicates: a
   duplicate ReqS or ReqOdata for a txn already served would re-run state
   transitions (sharer insertion, owner transfer) against a world the
   original already changed.  ReqWB reprocessing is idempotent (the owner
   check rejects stale PutMs). *)
let replay_guarded = function
  | Msg.ReqS | Msg.ReqOdata -> true
  | Msg.ReqV | Msg.ReqWT | Msg.ReqO | Msg.ReqWTdata | Msg.ReqWB -> false

let describe m item acc =
  let acc =
    match m.pending with
    | None -> acc
    | Some Fetching -> item "fetching from DRAM" :: acc
    | Some (Collecting_acks c) ->
      item (Printf.sprintf "collecting %d inv ack(s)" c.acks_left) :: acc
    | Some (Awaiting { from; _ }) ->
      item (Printf.sprintf "awaiting owner %d" from) :: acc
  in
  if m.blocked = [] then acc
  else
    item (Printf.sprintf "%d blocked request(s)" (List.length m.blocked))
    :: acc

let probes =
  {
    Home.tag = "dir";
    lines_metric = "spandex_dir_lines";
    lines_help = "resident directory lines";
    pending_help = "lines with an in-flight directory transaction";
  }

let view =
  {
    Home.busy = (fun m -> m.pending <> None);
    blocked = (fun m -> List.length m.blocked);
    describe;
  }

let create ~name engine net dram (cfg : config) =
  let home =
    Home.create engine net ~name ~first_id:cfg.dir_id ~banks:cfg.banks
      ~sets:cfg.sets ~ways:cfg.ways ~access_latency:cfg.access_latency
      ~guarded:replay_guarded probes view
  in
  let t = { engine; dram; home; frame = Home.frame home } in
  Home.listen home (handle t);
  t

let bank_stats t b = Home.bank_stats t.home b

let line_state t ~line =
  Option.map (fun m -> m.dstate) (Frames.find t.frame ~line)

let peek_word t { Addr.line; word } =
  Option.map (fun m -> m.data.(word)) (Frames.find t.frame ~line)

(* ----- model-checker introspection ----------------------------------------- *)

module Fp = Spandex_util.Fingerprint

let fingerprint t fp =
  Home.fingerprint t.home fp ~line:(fun fp m ->
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

let parts t = Home.parts t.home ~fingerprint:(fingerprint t)
