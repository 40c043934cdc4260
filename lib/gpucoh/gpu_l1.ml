module Mask = Spandex_util.Mask
module Stats = Spandex_util.Stats
module Engine = Spandex_sim.Engine
module Msg = Spandex_proto.Msg
module Addr = Spandex_proto.Addr
module Amo = Spandex_proto.Amo
module Linedata = Spandex_proto.Linedata
module Network = Spandex_net.Network
module Cache_frame = Spandex_mem.Cache_frame
module Mshr = Spandex_mem.Mshr
module Store_buffer = Spandex_mem.Store_buffer
module Port = Spandex_device.Port
module Tu = Spandex.Tu
module Chassis = Spandex_l1.Chassis

type config = {
  id : Msg.device_id;
  llc_id : Msg.device_id;
  llc_banks : int;
  sets : int;
  ways : int;
  mshrs : int;
  sb_capacity : int;
  hit_latency : int;
  coalesce_window : int;
  max_reqv_retries : int;
}

(* Line fills; valid lines carry a full data copy. *)
type line = { data : int array }

type miss = {
  m_line : int;
  collector : Tu.t;
  mutable waiters : (int * (int -> unit)) list;  (* word, continuation *)
  epoch : int;  (* self-invalidation epoch at issue; stale fills not cached *)
  mutable retries : int;
}

type wt = { wt_line : int }
type atomic = { a_word : int; a_k : int -> unit }

type outstanding = Miss of miss | Wt of wt | Atomic of atomic

type t = {
  ch : outstanding Chassis.t;
  cfg : config;
  frame : line Cache_frame.t;
  k_rmw : Stats.key;
  k_wt_issued : Stats.key;
  k_wt_words : Stats.key;
  mutable epoch : int;
}

(* A miss on [line] issued in [epoch]: a closed MSHR predicate
   ({!Mshr.find_first_exn}). *)
let miss_now epoch line = function
  | Miss m -> m.m_line = line && m.epoch = epoch
  | Wt _ | Atomic _ -> false

(* GPU coherence never owns: reads are self-invalidated line ReqVs, writes
   go through as ReqWTs (Table II). *)

(* ----- write-through drain -------------------------------------------------- *)

let rec drain t =
  match Store_buffer.peek_oldest_exn t.ch.Chassis.sb with
  | exception Not_found -> Chassis.check_release t.ch
  | e ->
    if not (Chassis.entry_ready t.ch e.Store_buffer.line) then
      Chassis.arm_drain t.ch ~delay:(max 1 t.cfg.coalesce_window)
    else if Mshr.is_full t.ch.Chassis.outstanding then
      () (* retried on a response *)
    else begin
      match
        Mshr.alloc t.ch.Chassis.outstanding (Wt { wt_line = e.Store_buffer.line })
      with
      | None -> ()
      | Some txn ->
        let e = Store_buffer.take_oldest_exn t.ch.Chassis.sb in
        let mask = e.Store_buffer.mask in
        let payload =
          Msg.Data (Linedata.pack ~mask ~full:e.Store_buffer.values)
        in
        Stats.bump t.ch.Chassis.stats t.k_wt_issued;
        Stats.bump_by t.ch.Chassis.stats t.k_wt_words (Mask.count mask);
        Chassis.request t.ch ~txn ~kind:Msg.ReqWT ~line:e.Store_buffer.line
          ~mask ~payload ();
        Store_buffer.release t.ch.Chassis.sb e;
        (* A freed entry may unblock a stalled store. *)
        Chassis.wake_stalled t.ch;
        drain t
    end

(* ----- loads ---------------------------------------------------------------- *)

let install_line t ~line values =
  (match Cache_frame.find_exn t.frame ~line with
  | l -> Array.blit values 0 l.data 0 Addr.words_per_line
  | exception Not_found -> (
    match
      Cache_frame.insert t.frame ~line
        { data = Array.copy values }
        ~can_evict:(fun ~line:_ _ -> true)
    with
    | Cache_frame.Inserted -> ()
    | Cache_frame.Evicted _ -> Stats.incr t.ch.Chassis.stats "evictions"
    | Cache_frame.No_room -> assert false));
  (* Stores buffered for this line must stay visible to local loads. *)
  match Store_buffer.find t.ch.Chassis.sb ~line with
  | None -> ()
  | Some e -> (
    match Cache_frame.find_exn t.frame ~line with
    | l ->
      Mask.iter e.Store_buffer.mask ~f:(fun w ->
          l.data.(w) <- e.Store_buffer.values.(w))
    | exception Not_found -> ())

let complete_miss t ~txn (m : miss) (r : Tu.result) =
  Chassis.free_txn t.ch ~txn;
  if m.epoch = t.epoch then install_line t ~line:m.m_line r.Tu.values
  else Stats.incr t.ch.Chassis.stats "stale_fill_dropped";
  List.iter (fun (w, k) -> k r.Tu.values.(w)) (List.rev m.waiters);
  drain t

(* A Nacked ReqV raced past an ownership change: retry, then convert to a
   ReqWT+data (performed at the LLC) to enforce ordering (§III-C case 3). *)
let handle_nacks t ~txn (m : miss) (r : Tu.result) =
  Chassis.trace_nack t.ch ~txn ~count:(Mask.count r.Tu.nacked);
  (* Carry what already arrived into the fresh collector.  A retransmitted
     response may have supplied data for words that were also Nacked; the
     seed then covers the whole remaining demand and no retry is needed —
     issuing one anyway would land its response on a completed collector. *)
  let seed collector =
    Tu.absorb collector
      (Msg.make ~txn ~kind:(Msg.Rsp Msg.RspV)
         ~mask:(Mask.union r.Tu.data_mask r.Tu.acked)
         ~payload:
           (Msg.Data
              (Linedata.pack
                 ~mask:(Mask.union r.Tu.data_mask r.Tu.acked)
                 ~full:r.Tu.values))
         ~line:m.m_line ~src:t.cfg.id ~dst:t.cfg.id ())
  in
  if m.retries < t.cfg.max_reqv_retries then begin
    let fresh = Tu.create ~demand:r.Tu.nacked in
    match seed fresh with
    | Some r' -> complete_miss t ~txn m r'
    | None ->
      m.retries <- m.retries + 1;
      Stats.incr t.ch.Chassis.stats "reqv_retry";
      let m' = { m with collector = fresh; retries = m.retries } in
      Chassis.free_txn t.ch ~txn;
      (match Mshr.alloc t.ch.Chassis.outstanding (Miss m') with
      | Some txn' ->
        Chassis.request t.ch ~txn:txn' ~kind:Msg.ReqV ~line:m.m_line
          ~mask:r.Tu.nacked
          ~demand:r.Tu.nacked ();
        Chassis.trace_chain t.ch ~txn ~txn'
      | None -> assert false (* we just freed a slot *))
  end
  else begin
    (* One ReqWT+data (atomic read) per still-missing word. *)
    let base = Tu.create ~demand:r.Tu.nacked in
    match seed base with
    | Some r' -> complete_miss t ~txn m r'
    | None ->
      Stats.incr t.ch.Chassis.stats "reqv_converted";
      let m' = { m with collector = base } in
      Chassis.free_txn t.ch ~txn;
      (match Mshr.alloc t.ch.Chassis.outstanding (Miss m') with
      | Some txn' ->
        Mask.iter r.Tu.nacked ~f:(fun w ->
            Chassis.request t.ch ~txn:txn' ~kind:Msg.ReqWTdata ~line:m.m_line
              ~mask:(Mask.singleton w) ~amo:Amo.Read ());
        Chassis.trace_chain t.ch ~txn ~txn'
      | None -> assert false)
  end

let rec load t (addr : Addr.t) ~k =
  (* Hit paths go straight to the engine's closure-free Apply event. *)
  match Store_buffer.forward t.ch.Chassis.sb ~addr with
  | Some v ->
    Stats.bump t.ch.Chassis.stats t.ch.Chassis.k_load_sb_fwd;
    Engine.apply_later t.ch.Chassis.engine ~delay:t.cfg.hit_latency k v
  | None -> (
    match Cache_frame.find_exn t.frame ~line:addr.Addr.line with
    | l ->
      Stats.bump t.ch.Chassis.stats t.ch.Chassis.k_load_hit;
      Cache_frame.touch t.frame ~line:addr.Addr.line;
      Engine.apply_later t.ch.Chassis.engine ~delay:t.cfg.hit_latency k
        l.data.(addr.Addr.word)
    | exception Not_found -> (
      Stats.bump t.ch.Chassis.stats t.ch.Chassis.k_load_miss;
      (* Coalesce with an outstanding miss of the current epoch. *)
      match
        Mshr.find_first_exn t.ch.Chassis.outstanding t.epoch addr.Addr.line
          ~f:miss_now
      with
      | Miss m ->
        Stats.incr t.ch.Chassis.stats "load_miss_coalesced";
        m.waiters <- (addr.Addr.word, k) :: m.waiters
      | _ -> assert false
      | exception Not_found -> (
        let m =
          {
            m_line = addr.Addr.line;
            collector = Tu.create ~demand:Addr.full_mask;
            waiters = [ (addr.Addr.word, k) ];
            epoch = t.epoch;
            retries = 0;
          }
        in
        match Mshr.alloc t.ch.Chassis.outstanding (Miss m) with
        | Some txn ->
          (* Line-granularity read (Table II). *)
          Chassis.request t.ch ~txn ~kind:Msg.ReqV ~line:addr.Addr.line
            ~mask:Addr.full_mask ()
        | None ->
          (* MSHRs exhausted: retry shortly. *)
          Stats.incr t.ch.Chassis.stats "mshr_stall";
          Engine.schedule t.ch.Chassis.engine ~delay:4 (fun () -> load t addr ~k))))

(* ----- stores and atomics --------------------------------------------------- *)

let rec store t (addr : Addr.t) ~value ~k =
  match
    Store_buffer.push t.ch.Chassis.sb ~addr ~value
      ~now:(Engine.now t.ch.Chassis.engine)
  with
  | `Coalesced | `New ->
    (* Keep a valid cached copy coherent with the local write. *)
    (match Cache_frame.find_exn t.frame ~line:addr.Addr.line with
    | l -> l.data.(addr.Addr.word) <- value
    | exception Not_found -> ());
    Stats.bump t.ch.Chassis.stats t.ch.Chassis.k_stores;
    Chassis.arm_drain t.ch ~delay:1;
    Engine.schedule t.ch.Chassis.engine ~delay:t.cfg.hit_latency k
  | `Full -> Chassis.stall_store t.ch (fun () -> store t addr ~value ~k)

let rmw t (addr : Addr.t) amo ~k =
  (* Atomics bypass the L1 and execute at the backing cache (§II-B). *)
  Stats.bump t.ch.Chassis.stats t.k_rmw;
  match
    Mshr.alloc t.ch.Chassis.outstanding
      (Atomic { a_word = addr.Addr.word; a_k = k })
  with
  | Some txn ->
    (* The returned data makes any cached copy of the line stale. *)
    Cache_frame.remove t.frame ~line:addr.Addr.line;
    Chassis.request t.ch ~txn ~kind:Msg.ReqWTdata ~line:addr.Addr.line
      ~mask:(Mask.singleton addr.Addr.word) ~amo ()
  | None ->
    Stats.incr t.ch.Chassis.stats "mshr_stall";
    Engine.schedule t.ch.Chassis.engine ~delay:4 (fun () ->
        let rec retry () =
          match
            Mshr.alloc t.ch.Chassis.outstanding
              (Atomic { a_word = addr.Addr.word; a_k = k })
          with
          | Some txn ->
            Cache_frame.remove t.frame ~line:addr.Addr.line;
            Chassis.request t.ch ~txn ~kind:Msg.ReqWTdata ~line:addr.Addr.line
              ~mask:(Mask.singleton addr.Addr.word) ~amo ()
          | None -> Engine.schedule t.ch.Chassis.engine ~delay:4 retry
        in
        retry ())

(* ----- synchronization ------------------------------------------------------ *)

let acquire t ~k =
  (* Flash self-invalidation of all Valid data: single cycle (§IV-A). *)
  Stats.incr t.ch.Chassis.stats "acquire_flash";
  Stats.add t.ch.Chassis.stats "flash_invalidated" (Cache_frame.count t.frame)
  |> ignore;
  let lines =
    Cache_frame.fold t.frame ~init:[] ~f:(fun acc ~line _ -> line :: acc)
  in
  List.iter (fun line -> Cache_frame.remove t.frame ~line) lines;
  t.epoch <- t.epoch + 1;
  Engine.schedule t.ch.Chassis.engine ~delay:1 k

let release t ~k = Chassis.release t.ch ~k

(* ----- responses ------------------------------------------------------------ *)

let handle t (msg : Msg.t) =
  match msg.Msg.kind with
  | Msg.Rsp _ -> (
    match Mshr.find_exn t.ch.Chassis.outstanding ~txn:msg.Msg.txn with
    | exception Not_found -> Stats.incr t.ch.Chassis.stats "orphan_rsp"
    | Wt _ ->
      (match msg.Msg.kind with
      | Msg.Rsp Msg.RspWT | Msg.Rsp Msg.RspO -> ()
      | _ -> failwith "Gpu_l1: unexpected write-through response");
      Chassis.free_txn t.ch ~txn:msg.Msg.txn;
      Chassis.check_release t.ch;
      drain t
    | Atomic a -> (
      match (msg.Msg.kind, msg.Msg.payload) with
      | Msg.Rsp Msg.RspWTdata, Msg.Data values ->
        Chassis.free_txn t.ch ~txn:msg.Msg.txn;
        a.a_k values.(0);
        drain t
      | _ -> failwith "Gpu_l1: unexpected atomic response")
    | Miss m -> (
      match Tu.absorb m.collector msg with
      | None -> ()
      | Some r ->
        if Mask.is_empty r.Tu.nacked then complete_miss t ~txn:msg.Msg.txn m r
        else handle_nacks t ~txn:msg.Msg.txn m r))
  | Msg.Probe Msg.Inv ->
    (* No Shared state: a (defensive) Inv is acknowledged without action
       (§III-C case 3). *)
    Chassis.send t.ch
      (Msg.make ~txn:msg.Msg.txn ~kind:(Msg.Rsp Msg.Ack) ~line:msg.Msg.line
         ~mask:msg.Msg.mask ~src:t.cfg.id ~dst:msg.Msg.src ())
  | Msg.Probe Msg.RvkO | Msg.Req _ ->
    failwith "Gpu_l1: received an ownership request but holds no ownership"

(* ----- construction --------------------------------------------------------- *)

let create ~name engine net cfg =
  let ch =
    Chassis.create engine net ~id:cfg.id ~home_id:cfg.llc_id
      ~home_banks:cfg.llc_banks ~hit_latency:cfg.hit_latency
      ~coalesce_window:cfg.coalesce_window ~mshrs:cfg.mshrs
      ~sb_capacity:cfg.sb_capacity ~device:name
      ~describe:(function
        | Miss m -> (m.m_line, "Read miss")
        | Wt w -> (w.wt_line, "Write-through")
        | Atomic _ -> (-1, "Atomic at LLC"))
      ~is_write:(function Wt _ -> true | Miss _ | Atomic _ -> false)
  in
  let t =
    {
      ch;
      cfg;
      frame = Cache_frame.create ~sets:cfg.sets ~ways:cfg.ways;
      k_rmw = Stats.key ch.Chassis.stats "rmw";
      k_wt_issued = Stats.key ch.Chassis.stats "wt_issued";
      k_wt_words = Stats.key ch.Chassis.stats "wt_words";
      epoch = 0;
    }
  in
  ch.Chassis.drain <- (fun () -> drain t);
  Network.register net ~id:cfg.id (fun msg -> handle t msg);
  t

let port t =
  {
    Port.load = (fun addr ~k -> load t addr ~k);
    store = (fun addr ~value ~k -> store t addr ~value ~k);
    rmw = (fun addr amo ~k -> rmw t addr amo ~k);
    acquire = (fun ~k -> acquire t ~k);
    (* No region support: a conservative full flash (paper II-C attributes
       regions to DeNovo). *)
    acquire_region = (fun ~region:_ ~k -> acquire t ~k);
    release = (fun ~k -> release t ~k);
  }

let stats t = t.ch.Chassis.stats

let peek_word t (addr : Addr.t) =
  Option.map
    (fun l -> l.data.(addr.Addr.word))
    (Cache_frame.find t.frame ~line:addr.Addr.line)

let valid_lines t = Cache_frame.count t.frame

(* ----- model-checker introspection ----------------------------------------- *)

module Fp = Spandex_util.Fingerprint

let fingerprint t fp =
  Fp.tag fp "gpu_l1";
  Fp.int fp t.cfg.id;
  Fp.int fp t.epoch;
  let lines =
    Cache_frame.fold t.frame ~init:[] ~f:(fun acc ~line l -> (line, l) :: acc)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Fp.int fp (List.length lines);
  List.iter
    (fun (line, l) ->
      Fp.int fp line;
      Fp.array fp l.data)
    lines;
  Chassis.fingerprint t.ch fp
    ~key:(function
      | Miss m -> (m.m_line * 4) + 0
      | Wt w -> (w.wt_line * 4) + 1
      | Atomic a -> (a.a_word * 4) + 2)
    ~payload:(fun fp -> function
      | Miss m ->
        Fp.tag fp "R";
        Fp.int fp m.m_line;
        Fp.int fp (t.epoch - m.epoch);
        Fp.int fp m.retries;
        Chassis.fingerprint_waiters fp m.waiters;
        Tu.fingerprint fp m.collector
      | Wt w ->
        Fp.tag fp "W";
        Fp.int fp w.wt_line
      | Atomic a ->
        Fp.tag fp "A";
        Fp.int fp a.a_word)

let part t =
  Chassis.part t.ch ~fingerprint:(fingerprint t)
    (Some
       {
         port = port t;
         owned_mask = (fun ~line:_ -> Spandex_util.Mask.empty);
         peek_word = peek_word t;
       })
