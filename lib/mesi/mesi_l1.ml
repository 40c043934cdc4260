module Mask = Spandex_util.Mask
module Stats = Spandex_util.Stats
module Engine = Spandex_sim.Engine
module Msg = Spandex_proto.Msg
module Addr = Spandex_proto.Addr
module Amo = Spandex_proto.Amo
module State = Spandex_proto.State
module Linedata = Spandex_proto.Linedata
module Network = Spandex_net.Network
module Cache_frame = Spandex_mem.Cache_frame
module Mshr = Spandex_mem.Mshr
module Store_buffer = Spandex_mem.Store_buffer
module Port = Spandex_device.Port
module Tu = Spandex.Tu
module Chassis = Spandex_l1.Chassis
module Policy = Spandex_l1.Policy

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
  notify_home_on_fwd_getm : bool;
}

type line = { data : int array; mutable mstate : State.mesi }

type read_miss = {
  r_line : int;
  r_collector : Tu.t;
  mutable r_waiters : (int * (int -> unit)) list;
  mutable r_excl : bool;  (* some words granted with ownership (E). *)
  mutable r_valid_only : bool;
      (* served like a ReqV (LLC option (2)): the data must be dropped
         after the read completes, precluding reuse (paper III-B). *)
  mutable r_inv : bool;
      (* an Inv arrived mid-read (III-C case 1): the Shared grant it races
         with is already stale — deliver the values but cache nothing.  An
         exclusive grant is newer than any Inv and still installs. *)
  mutable r_downgraded : Spandex_util.Mask.t;
      (* a ReqS can be granted with ownership (option 3), so reads race
         with downgrades exactly like writes (§III-C case 1). *)
  mutable r_queued : Msg.t list;
}

(* A pending ReqO+data write or RMW miss. *)
type write_miss = {
  m_line : int;
  m_collector : Tu.t;
  m_store : (Mask.t * int array) option;  (* drained store-buffer entry. *)
  m_rmw : (int * Amo.t * (int -> unit)) option;
  mutable m_downgraded : Mask.t;  (* words stolen by data-less fwd ReqO. *)
  mutable m_queued : Msg.t list;  (* delayed data-needing externals. *)
  mutable m_loads : (int * (int -> unit)) list;
      (* loads that missed while this write was in flight: issuing a ReqS
         beside a pending ReqO+data for the same line would race it at the
         LLC and one of the two would be granted without data; the loads
         are served from the grant instead. *)
}

type wb_req = { b_line : int; b_values : int array }

type outstanding = Read of read_miss | Write of write_miss

type t = {
  ch : outstanding Chassis.t;
  cfg : config;
  frame : line Cache_frame.t;
  (* Write-backs in flight, keyed by transaction id.  Kept outside the MSHR
     file: the record is protocol state (the data must be servable while
     the LLC still lists this cache as owner) and must exist from the
     instant the line is downgraded, regardless of miss-resource pressure. *)
  wb_records : (int, wb_req) Hashtbl.t;
  forced_lines : (int, unit) Hashtbl.t;  (* drain immediately (RMW order). *)
  (* MESI is writer-invalidated: reads want Shared data, writes fetch the
     whole line with ownership.  Constant classification, but routed
     through the policy layer like every other protocol. *)
  policy : Policy.t;
  k_store_commit_owned : Stats.key;
  k_rmw_hit : Stats.key;
  k_rmw_miss : Stats.key;
  k_wb_issued : Stats.key;
}

let send t msg = Chassis.send t.ch msg

let request t ~txn ~kind ~line ~mask ?payload () =
  Chassis.request t.ch ~txn ~kind ~line ~mask ?payload ()

let free_txn t ~txn = Chassis.free_txn t.ch ~txn

let reply t (msg : Msg.t) ~kind ~dst ~mask ?payload () =
  Chassis.reply t.ch msg ~kind ~dst ~mask ?payload ()

let reply_data t msg ~kind ~dst ~mask ~values =
  Chassis.reply_data t.ch msg ~kind ~dst ~mask ~values

(* ----- frame management ----------------------------------------------------- *)

let send_wb t ~line ~values =
  let txn = Chassis.fresh_txn t.ch in
  Hashtbl.replace t.wb_records txn { b_line = line; b_values = values };
  Stats.bump t.ch.Chassis.stats t.k_wb_issued;
  request t ~txn ~kind:Msg.ReqWB ~line ~mask:Addr.full_mask
    ~payload:(Msg.pooled_copy values)
    ()

let install t ~line_id ~values ~mstate =
  match Cache_frame.find_exn t.frame ~line:line_id with
  | l ->
    Array.blit values 0 l.data 0 Addr.words_per_line;
    l.mstate <- mstate;
    l
  | exception Not_found -> (
    let fresh = { data = Array.copy values; mstate } in
    match
      Cache_frame.insert t.frame ~line:line_id fresh ~can_evict:(fun ~line:_ _ ->
          true)
    with
    | Cache_frame.Inserted -> fresh
    | Cache_frame.Evicted (vline, vmeta) ->
      Stats.incr t.ch.Chassis.stats "evictions";
      (match vmeta.mstate with
      | State.M_M | State.M_E -> send_wb t ~line:vline ~values:vmeta.data
      | State.M_S | State.M_I -> ());
      fresh
    | Cache_frame.No_room -> assert false)

(* ----- store-buffer drain ---------------------------------------------------- *)

let entry_ready t line =
  Chassis.entry_ready ~forced:(Hashtbl.mem t.forced_lines line) t.ch line

let write_pending_for t line =
  if Mshr.count t.ch.Chassis.outstanding = 0 then None
  else
  match
    Mshr.find_first_exn t.ch.Chassis.outstanding ~f:(function
      | Write w -> w.m_line = line
      | Read _ -> false)
  with
  | Write w -> Some w
  | _ -> None
  | exception Not_found -> None

(* A pending ReqS may be granted Exclusive (option 3), making this cache
   the registered owner; issuing a ReqO+data for the same line while it is
   in flight would be answered with a data-less self-grant.  Writes and
   RMWs therefore wait for reads to the same line. *)
let read_pending t line =
  Mshr.count t.ch.Chassis.outstanding > 0
  && Mshr.exists t.ch.Chassis.outstanding ~f:(function
       | Read m -> m.r_line = line
       | Write _ -> false)

let writes_pending t =
  let n = ref 0 in
  Mshr.iter t.ch.Chassis.outstanding ~f:(fun ~txn:_ -> function
    | Write _ -> incr n
    | Read _ -> ());
  !n

let rec drain t =
  match Store_buffer.peek_oldest_exn t.ch.Chassis.sb with
  | exception Not_found -> Chassis.check_release t.ch
  | e ->
    let line_id = e.Store_buffer.line in
    if not (entry_ready t line_id) then
      Chassis.arm_drain t.ch ~delay:(max 1 t.cfg.coalesce_window)
    else if write_pending_for t line_id <> None || read_pending t line_id then
      (* Same-line request already in flight; strict FIFO, re-checked when
         a response arrives. *)
      ()
    else begin
      match Cache_frame.find_exn t.frame ~line:line_id with
      | l when l.mstate = State.M_M || l.mstate = State.M_E ->
        let e = Store_buffer.take_oldest_exn t.ch.Chassis.sb in
        Hashtbl.remove t.forced_lines line_id;
        l.mstate <- State.M_M;
        for w = 0 to Addr.words_per_line - 1 do
          if Mask.mem e.Store_buffer.mask w then
            l.data.(w) <- e.Store_buffer.values.(w)
        done;
        Stats.bump t.ch.Chassis.stats t.k_store_commit_owned;
        Store_buffer.release t.ch.Chassis.sb e;
        (* A freed entry may unblock a stalled store on either drain path. *)
        Chassis.wake_stalled t.ch;
        drain t
      | _ | (exception Not_found) ->
        if Mshr.is_full t.ch.Chassis.outstanding then ()
        else begin
          let e = Store_buffer.take_oldest_exn t.ch.Chassis.sb in
          Hashtbl.remove t.forced_lines line_id;
          let w =
            {
              m_line = line_id;
              m_collector = Tu.create ~demand:Addr.full_mask;
              m_store = Some (e.Store_buffer.mask, Array.copy e.Store_buffer.values);
              m_rmw = None;
              m_downgraded = Mask.empty;
              m_queued = [];
              m_loads = [];
            }
          in
          (match Mshr.alloc t.ch.Chassis.outstanding (Write w) with
          | Some txn ->
            Stats.incr t.ch.Chassis.stats "write_miss";
            (* Read-for-ownership: fetch the whole line with ownership. *)
            let kind =
              Policy.req_of_write (t.policy.Policy.classify_write ~line:line_id)
            in
            request t ~txn ~kind ~line:line_id ~mask:Addr.full_mask ()
          | None -> assert false);
          Store_buffer.release t.ch.Chassis.sb e;
          Chassis.wake_stalled t.ch;
          drain t
        end
    end

(* ----- loads ---------------------------------------------------------------- *)

let rec load t (addr : Addr.t) ~k =
  (* Hit paths go straight to the engine's closure-free Apply event. *)
  let { Addr.line; word } = addr in
  match Store_buffer.forward t.ch.Chassis.sb ~addr with
  | Some v ->
    Stats.bump t.ch.Chassis.stats t.ch.Chassis.k_load_sb_fwd;
    Engine.apply_later t.ch.Chassis.engine ~delay:t.cfg.hit_latency k v
  | None -> (
    (* A drained but un-granted store also forwards; any other load beside
       a pending write to the same line waits for the write's grant. *)
    match write_pending_for t line with
    | Some { m_store = Some (mask, values); _ } when Mask.mem mask word ->
      Stats.bump t.ch.Chassis.stats t.ch.Chassis.k_load_sb_fwd;
      Engine.apply_later t.ch.Chassis.engine ~delay:t.cfg.hit_latency k
        values.(word)
    | Some w ->
      Stats.incr t.ch.Chassis.stats "load_waits_write";
      w.m_loads <- (word, k) :: w.m_loads
    | None -> (
      match Cache_frame.find_exn t.frame ~line with
      | l when l.mstate <> State.M_I ->
        Stats.bump t.ch.Chassis.stats t.ch.Chassis.k_load_hit;
        Cache_frame.touch t.frame ~line;
        Engine.apply_later t.ch.Chassis.engine ~delay:t.cfg.hit_latency k
          l.data.(word)
      | _ | (exception Not_found) -> (
        Stats.bump t.ch.Chassis.stats t.ch.Chassis.k_load_miss;
        match
          Mshr.find_first_exn t.ch.Chassis.outstanding ~f:(function
            | Read m -> m.r_line = line
            | _ -> false)
        with
        | Read m ->
          Stats.incr t.ch.Chassis.stats "load_miss_coalesced";
          m.r_waiters <- (word, k) :: m.r_waiters
        | _ -> assert false
        | exception Not_found -> (
          let m =
            {
              r_line = line;
              r_collector = Tu.create ~demand:Addr.full_mask;
              r_waiters = [ (word, k) ];
              r_excl = false;
              r_valid_only = false;
              r_inv = false;
              r_downgraded = Mask.empty;
              r_queued = [];
            }
          in
          match Mshr.alloc t.ch.Chassis.outstanding (Read m) with
          | Some txn ->
            let kind =
              Policy.req_of_read
                (t.policy.Policy.classify_read ~line Policy.absent)
            in
            request t ~txn ~kind ~line ~mask:Addr.full_mask ()
          | None ->
            Stats.incr t.ch.Chassis.stats "mshr_stall";
            Engine.schedule t.ch.Chassis.engine ~delay:4 (fun () ->
                load t addr ~k)))))

(* ----- stores and RMWs ------------------------------------------------------- *)

let rec store t (addr : Addr.t) ~value ~k =
  match
    Store_buffer.push t.ch.Chassis.sb ~addr ~value
      ~now:(Engine.now t.ch.Chassis.engine)
  with
  | `Coalesced | `New ->
    Stats.bump t.ch.Chassis.stats t.ch.Chassis.k_stores;
    Chassis.arm_drain t.ch ~delay:1;
    Engine.schedule t.ch.Chassis.engine ~delay:t.cfg.hit_latency k
  | `Full -> Chassis.stall_store t.ch (fun () -> store t addr ~value ~k)

let rec rmw t (addr : Addr.t) amo ~k =
  let { Addr.line; word } = addr in
  (* Program order: buffered stores to this line must commit first. *)
  if
    Store_buffer.mem t.ch.Chassis.sb ~line
    || write_pending_for t line <> None
    || read_pending t line
  then begin
    Hashtbl.replace t.forced_lines line ();
    Chassis.arm_drain t.ch ~delay:0;
    Engine.schedule t.ch.Chassis.engine ~delay:2 (fun () -> rmw t addr amo ~k)
  end
  else
    match Cache_frame.find_exn t.frame ~line with
    | l when l.mstate = State.M_M || l.mstate = State.M_E ->
      Stats.bump t.ch.Chassis.stats t.k_rmw_hit;
      l.mstate <- State.M_M;
      let next, old = Amo.apply amo l.data.(word) in
      l.data.(word) <- next;
      Engine.apply_later t.ch.Chassis.engine ~delay:t.cfg.hit_latency k old
    | _ | (exception Not_found) -> (
      Stats.bump t.ch.Chassis.stats t.k_rmw_miss;
      let w =
        {
          m_line = line;
          m_collector = Tu.create ~demand:Addr.full_mask;
          m_store = None;
          m_rmw = Some (word, amo, k);
          m_downgraded = Mask.empty;
          m_queued = [];
          m_loads = [];
        }
      in
      match Mshr.alloc t.ch.Chassis.outstanding (Write w) with
      | Some txn ->
        let kind =
          Policy.req_of_write (t.policy.Policy.classify_write ~line)
        in
        request t ~txn ~kind ~line ~mask:Addr.full_mask ()
      | None ->
        Stats.incr t.ch.Chassis.stats "mshr_stall";
        Engine.schedule t.ch.Chassis.engine ~delay:4 (fun () -> rmw t addr amo ~k))

(* ----- external requests (TU behaviours, §III-D) ------------------------------ *)

let wb_record_for t line =
  if Hashtbl.length t.wb_records = 0 then None
  else
  Hashtbl.fold
    (fun _ (b : wb_req) acc ->
      if b.b_line = line then Some b else acc)
    t.wb_records None

let read_pending_for t line =
  if Mshr.count t.ch.Chassis.outstanding = 0 then None
  else
  match
    Mshr.find_first_exn t.ch.Chassis.outstanding ~f:(function
      | Read m -> m.r_line = line
      | Write _ -> false)
  with
  | Read m -> Some m
  | _ -> None
  | exception Not_found -> None

(* Downgrade the owned line for an external request covering [msg.mask];
   words of the line outside the request are written back (Fig. 1d). *)
let rec external_req t (msg : Msg.t) =
  let line_id = msg.Msg.line in
  (* Order matters: while a write-back record is alive, any forwarded
     request for its words was serialized before the write-back at the LLC
     (point-to-point FIFO), i.e. it targets the OLD ownership epoch and
     must be served from the retained data — never queued behind a newer
     pending write for the same line (that would deadlock the chain). *)
  match Cache_frame.find_exn t.frame ~line:line_id with
  | l when l.mstate = State.M_M || l.mstate = State.M_E -> serve_owned t msg l
  | _ | (exception Not_found) -> (
    match wb_record_for t line_id with
    | Some b -> serve_from_wb t msg b
    | None -> (
      match write_pending_for t line_id with
      | Some w -> serve_mid_write t msg w
      | None -> (
        match read_pending_for t line_id with
        | Some m -> serve_mid_read t msg m
        | None -> (
          match msg.Msg.kind with
          | Msg.Req Msg.ReqV ->
            if not (Mask.is_empty msg.Msg.demand) then begin
              Stats.incr t.ch.Chassis.stats "nack_sent";
              reply t msg ~kind:Msg.Nack ~dst:msg.Msg.requestor
                ~mask:msg.Msg.demand ()
            end
          | Msg.Req Msg.ReqO ->
            reply t msg ~kind:Msg.RspO ~dst:msg.Msg.requestor
              ~mask:msg.Msg.mask ()
          | _ ->
            failwith
              (Format.asprintf "Mesi_l1 %d: external for line not held: %a"
                 t.cfg.id Msg.pp msg)))))

and serve_owned t (msg : Msg.t) l =
  let line_id = msg.Msg.line in
  let mask = msg.Msg.mask in
  let rest = Mask.diff Addr.full_mask mask in
  match msg.Msg.kind with
  | Msg.Req Msg.ReqV ->
    (* Owned data served in place; no state change (Table IV). *)
    reply_data t msg ~kind:Msg.RspV ~dst:msg.Msg.requestor ~mask ~values:l.data
  | Msg.Req Msg.ReqS ->
    (* O -> S: data to the requestor, write-back copy to the LLC. *)
    reply_data t msg ~kind:Msg.RspS ~dst:msg.Msg.requestor ~mask ~values:l.data;
    reply_data t msg ~kind:Msg.RspRvkO ~dst:msg.Msg.src ~mask:Addr.full_mask
      ~values:l.data;
    l.mstate <- State.M_S
  | Msg.Req Msg.ReqO ->
    reply t msg ~kind:Msg.RspO ~dst:msg.Msg.requestor ~mask ();
    if not (Mask.is_empty rest) then begin
      Stats.incr t.ch.Chassis.stats "partial_downgrade_wb";
      send_wb_words t ~line:line_id ~mask:rest ~values:l.data
    end;
    Cache_frame.remove t.frame ~line:line_id
  | Msg.Req Msg.ReqOdata ->
    reply_data t msg ~kind:Msg.RspOdata ~dst:msg.Msg.requestor ~mask
      ~values:l.data;
    if t.cfg.notify_home_on_fwd_getm then
      (* Directory protocols block the line until the old owner confirms
         the transfer. *)
      reply t msg ~kind:Msg.RspRvkO ~dst:msg.Msg.src ~mask ();
    if not (Mask.is_empty rest) then begin
      Stats.incr t.ch.Chassis.stats "partial_downgrade_wb";
      send_wb_words t ~line:line_id ~mask:rest ~values:l.data
    end;
    Cache_frame.remove t.frame ~line:line_id
  | Msg.Probe Msg.RvkO ->
    reply_data t msg ~kind:Msg.RspRvkO ~dst:msg.Msg.src ~mask ~values:l.data;
    let outside = Mask.diff Addr.full_mask mask in
    if not (Mask.is_empty outside) then
      (* The LLC revokes everything it thinks we own; words outside the
         revocation are ours to write back. *)
      send_wb_words t ~line:line_id ~mask:outside ~values:l.data;
    Cache_frame.remove t.frame ~line:line_id
  | _ -> assert false

and send_wb_words t ~line ~mask ~values =
  let txn = Chassis.fresh_txn t.ch in
  Hashtbl.replace t.wb_records txn { b_line = line; b_values = Array.copy values };
  Stats.bump t.ch.Chassis.stats t.k_wb_issued;
  request t ~txn ~kind:Msg.ReqWB ~line ~mask
    ~payload:(Msg.pooled_pack ~mask ~full:values)
    ()

(* §III-C case 1: a pending ReqO+data is a transition *to* the expected
   state.  Data-needing externals wait for the fill; data-less downgrades
   (ReqO) are answered immediately and remembered. *)
and serve_mid_write t (msg : Msg.t) (w : write_miss) =
  match msg.Msg.kind with
  | Msg.Req Msg.ReqO ->
    Stats.incr t.ch.Chassis.stats "ext_stolen_mid_write";
    w.m_downgraded <- Mask.union w.m_downgraded msg.Msg.mask;
    reply t msg ~kind:Msg.RspO ~dst:msg.Msg.requestor ~mask:msg.Msg.mask ()
  | Msg.Req (Msg.ReqV | Msg.ReqS | Msg.ReqOdata) | Msg.Probe Msg.RvkO ->
    Stats.incr t.ch.Chassis.stats "ext_delayed";
    Msg.keep msg;
    w.m_queued <- w.m_queued @ [ msg ]
  | _ -> assert false

(* A pending ReqS may be mid-grant of Exclusive state (ReqS option 3), so
   it is also a "pending transition to the expected state". *)
and serve_mid_read t (msg : Msg.t) (m : read_miss) =
  match msg.Msg.kind with
  | Msg.Req Msg.ReqO ->
    Stats.incr t.ch.Chassis.stats "ext_stolen_mid_read";
    m.r_downgraded <- Mask.union m.r_downgraded msg.Msg.mask;
    reply t msg ~kind:Msg.RspO ~dst:msg.Msg.requestor ~mask:msg.Msg.mask ()
  | Msg.Req (Msg.ReqV | Msg.ReqS | Msg.ReqOdata) | Msg.Probe Msg.RvkO ->
    Stats.incr t.ch.Chassis.stats "ext_delayed";
    Msg.keep msg;
    m.r_queued <- m.r_queued @ [ msg ]
  | _ -> assert false

(* §III-D case 3: pending write-back — respond from the retained data; the
   in-flight ReqWB carries the data to the LLC (footnote 5). *)
and serve_from_wb t (msg : Msg.t) (b : wb_req) =
  match msg.Msg.kind with
  | Msg.Req Msg.ReqV ->
    reply_data t msg ~kind:Msg.RspV ~dst:msg.Msg.requestor ~mask:msg.Msg.mask
      ~values:b.b_values
  | Msg.Req Msg.ReqS ->
    reply_data t msg ~kind:Msg.RspS ~dst:msg.Msg.requestor ~mask:msg.Msg.mask
      ~values:b.b_values;
    reply t msg ~kind:Msg.RspRvkO ~dst:msg.Msg.src ~mask:msg.Msg.mask ()
  | Msg.Req Msg.ReqO ->
    reply t msg ~kind:Msg.RspO ~dst:msg.Msg.requestor ~mask:msg.Msg.mask ()
  | Msg.Req Msg.ReqOdata ->
    reply_data t msg ~kind:Msg.RspOdata ~dst:msg.Msg.requestor
      ~mask:msg.Msg.mask ~values:b.b_values;
    if t.cfg.notify_home_on_fwd_getm then
      reply t msg ~kind:Msg.RspRvkO ~dst:msg.Msg.src ~mask:msg.Msg.mask ()
  | Msg.Probe Msg.RvkO ->
    reply t msg ~kind:Msg.RspRvkO ~dst:msg.Msg.src ~mask:msg.Msg.mask ()
  | _ -> assert false

(* ----- miss completion -------------------------------------------------------- *)

let complete_read t ~txn (m : read_miss) (r : Tu.result) =
  free_txn t ~txn;
  if (m.r_valid_only || m.r_inv) && not m.r_excl then begin
    (* Option (2): the read is satisfied but nothing may be cached. *)
    Stats.incr t.ch.Chassis.stats "read_uncached_opt2";
    List.iter (fun (w, k) -> k r.Tu.values.(w)) (List.rev m.r_waiters);
    drain t
  end
  else begin
  let mstate = if m.r_excl then State.M_E else State.M_S in
  let l = install t ~line_id:m.r_line ~values:r.Tu.values ~mstate in
  List.iter (fun (w, k) -> k r.Tu.values.(w)) (List.rev m.r_waiters);
  if not (Mask.is_empty m.r_downgraded) then begin
    let keep = Mask.diff Addr.full_mask m.r_downgraded in
    if not (Mask.is_empty keep) then
      send_wb_words t ~line:m.r_line ~mask:keep ~values:l.data;
    Cache_frame.remove t.frame ~line:m.r_line
  end;
  let queued = m.r_queued in
  m.r_queued <- [];
  List.iter (fun q -> external_req t q) queued;
  drain t
  end

let complete_write t ~txn (w : write_miss) (r : Tu.result) =
  free_txn t ~txn;
  let l = install t ~line_id:w.m_line ~values:r.Tu.values ~mstate:State.M_M in
  (match w.m_store with
  | Some (mask, values) ->
    Mask.iter mask ~f:(fun word -> l.data.(word) <- values.(word))
  | None -> ());
  let rmw_finish =
    match w.m_rmw with
    | Some (word, amo, k) ->
      let next, old = Amo.apply amo l.data.(word) in
      l.data.(word) <- next;
      fun () -> k old
    | None -> fun () -> ()
  in
  (* TU rule (§III-D case 2): if any downgrade arrived mid-miss, fall to I
     and write back the words that were not downgraded. *)
  if not (Mask.is_empty w.m_downgraded) then begin
    let keep = Mask.diff Addr.full_mask w.m_downgraded in
    if not (Mask.is_empty keep) then
      send_wb_words t ~line:w.m_line ~mask:keep ~values:l.data;
    Cache_frame.remove t.frame ~line:w.m_line
  end;
  rmw_finish ();
  (* Loads that waited on this write read the granted line. *)
  List.iter (fun (word, k) -> k l.data.(word)) (List.rev w.m_loads);
  w.m_loads <- [];
  (* Delayed externals now see a stable owner (or its write-back record). *)
  let queued = w.m_queued in
  w.m_queued <- [];
  List.iter (fun m -> external_req t m) queued;
  Chassis.check_release t.ch;
  drain t

(* ----- synchronization --------------------------------------------------------- *)

let acquire t ~k =
  (* Writer-initiated invalidation: nothing to self-invalidate (§II-A). *)
  Stats.incr t.ch.Chassis.stats "acquire";
  Engine.schedule t.ch.Chassis.engine ~delay:1 k

let release t ~k = Chassis.release t.ch ~k

(* ----- message handler ----------------------------------------------------------- *)

let handle t (msg : Msg.t) =
  match msg.Msg.kind with
  | Msg.Probe Msg.Inv ->
    (match Cache_frame.find_exn t.frame ~line:msg.Msg.line with
    | l when l.mstate = State.M_S ->
      Stats.incr t.ch.Chassis.stats "invalidated";
      Cache_frame.remove t.frame ~line:msg.Msg.line
    | _ | (exception Not_found) -> Stats.incr t.ch.Chassis.stats "inv_stale");
    (* The Inv may overtake a remote owner's direct RspS to our pending
       read: the Shared copy being assembled is already stale. *)
    (match read_pending_for t msg.Msg.line with
    | Some m -> m.r_inv <- true
    | None -> ());
    send t
      (Msg.make ~txn:msg.Msg.txn ~kind:(Msg.Rsp Msg.Ack) ~line:msg.Msg.line
         ~mask:msg.Msg.mask ~src:t.cfg.id ~dst:msg.Msg.src ())
  | Msg.Probe Msg.RvkO | Msg.Req _ -> external_req t msg
  | Msg.Rsp _ when Hashtbl.mem t.wb_records msg.Msg.txn ->
    (match msg.Msg.kind with
    | Msg.Rsp Msg.RspWB -> ()
    | _ -> failwith "Mesi_l1: unexpected write-back response");
    Hashtbl.remove t.wb_records msg.Msg.txn;
    Chassis.retire t.ch ~txn:msg.Msg.txn;
    drain t
  | Msg.Rsp _ -> (
    match Mshr.find_exn t.ch.Chassis.outstanding ~txn:msg.Msg.txn with
    | exception Not_found -> Stats.incr t.ch.Chassis.stats "orphan_rsp"
    | Read m -> (
      (match msg.Msg.kind with
      | Msg.Rsp (Msg.RspOdata | Msg.RspO) -> m.r_excl <- true
      | Msg.Rsp Msg.RspV -> m.r_valid_only <- true
      | _ -> ());
      match Tu.absorb m.r_collector msg with
      | None -> ()
      | Some r ->
        assert (Mask.is_empty r.Tu.nacked);
        complete_read t ~txn:msg.Msg.txn m r)
    | Write w -> (
      match Tu.absorb w.m_collector msg with
      | None -> ()
      | Some r ->
        assert (Mask.is_empty r.Tu.nacked);
        complete_write t ~txn:msg.Msg.txn w r))

(* ----- construction ---------------------------------------------------------------- *)

let quiescent t = Chassis.quiescent t.ch && Hashtbl.length t.wb_records = 0

let register_metrics t ~device reg =
  Chassis.register_metrics t.ch ~device reg

let create engine net cfg =
  let name = Printf.sprintf "mesi_l1.%d" cfg.id in
  let ch =
    Chassis.create engine net ~id:cfg.id ~home_id:cfg.llc_id
      ~home_banks:cfg.llc_banks ~hit_latency:cfg.hit_latency
      ~coalesce_window:cfg.coalesce_window ~mshrs:cfg.mshrs
      ~sb_capacity:cfg.sb_capacity ~level:"l1" ~device:name
  in
  let t =
    {
      ch;
      cfg;
      frame = Cache_frame.create ~sets:cfg.sets ~ways:cfg.ways;
      wb_records = Hashtbl.create 16;
      forced_lines = Hashtbl.create 8;
      policy =
        Policy.static ~name:"mesi" ~read:Policy.Read_shared
          ~write:Policy.Write_own_data;
      k_store_commit_owned = Stats.key ch.Chassis.stats "store_commit_owned";
      k_rmw_hit = Stats.key ch.Chassis.stats "rmw_hit";
      k_rmw_miss = Stats.key ch.Chassis.stats "rmw_miss";
      k_wb_issued = Stats.key ch.Chassis.stats "wb_issued";
    }
  in
  ch.Chassis.drain <- (fun () -> drain t);
  ch.Chassis.writes_pending <- (fun () -> writes_pending t);
  ch.Chassis.source_line <-
    (function Read m -> m.r_line | Write w -> w.m_line);
  ch.Chassis.source_what <-
    (function Read _ -> "Read miss" | Write _ -> "Write miss");
  Engine.register_pending_source engine (fun () ->
      Hashtbl.fold
        (fun txn (b : wb_req) acc ->
          {
            Engine.pw_device = name;
            pw_txn = txn;
            pw_line = b.b_line;
            pw_what = "write-back awaiting RspWB";
          }
          :: acc)
        t.wb_records []);
  Network.register net ~id:cfg.id (fun msg -> handle t msg);
  t

let port t =
  {
    Port.load = (fun addr ~k -> load t addr ~k);
    store = (fun addr ~value ~k -> store t addr ~value ~k);
    rmw = (fun addr amo ~k -> rmw t addr amo ~k);
    acquire = (fun ~k -> acquire t ~k);
    (* Writer-initiated invalidation: nothing to self-invalidate. *)
    acquire_region = (fun ~region:_ ~k -> acquire t ~k);
    release = (fun ~k -> release t ~k);
    quiescent = (fun () -> quiescent t);
  }

let stats t = t.ch.Chassis.stats

let line_state t ~line =
  match Cache_frame.find t.frame ~line with
  | Some l -> l.mstate
  | None -> State.M_I

let peek_word t (addr : Addr.t) =
  match Cache_frame.find t.frame ~line:addr.Addr.line with
  | Some l when l.mstate <> State.M_I -> Some l.data.(addr.Addr.word)
  | _ -> None

let cached_lines t = Cache_frame.count t.frame

(* ----- model-checker introspection ----------------------------------------- *)

module Fp = Spandex_util.Fingerprint

let fp_collector fp c =
  let r = Tu.peek c in
  Fp.int fp (r.Tu.data_mask :> int);
  Fp.int fp (r.Tu.acked :> int);
  Fp.int fp (r.Tu.nacked :> int);
  Fp.masked_array fp ~mask:r.Tu.data_mask r.Tu.values

let fp_waiters fp ws = Fp.list fp Fp.int (List.sort compare (List.map fst ws))

let mesi_tag = function
  | State.M_I -> 0
  | State.M_S -> 1
  | State.M_E -> 2
  | State.M_M -> 3

let fp_amo fp = function
  | Amo.Read -> Fp.int fp 0
  | Amo.Exch v ->
    Fp.int fp 1;
    Fp.int fp v
  | Amo.Add v ->
    Fp.int fp 2;
    Fp.int fp v
  | Amo.Max v ->
    Fp.int fp 3;
    Fp.int fp v
  | Amo.Cas { expected; desired } ->
    Fp.int fp 4;
    Fp.int fp expected;
    Fp.int fp desired

let fingerprint t fp =
  Fp.tag fp "mesi_l1";
  Fp.int fp t.cfg.id;
  let lines =
    Cache_frame.fold t.frame ~init:[] ~f:(fun acc ~line l ->
        if l.mstate = State.M_I then acc else (line, l) :: acc)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Fp.int fp (List.length lines);
  List.iter
    (fun (line, l) ->
      Fp.int fp line;
      Fp.int fp (mesi_tag l.mstate);
      Fp.array fp l.data)
    lines;
  let forced =
    Hashtbl.fold (fun line () acc -> line :: acc) t.forced_lines []
    |> List.sort compare
  in
  Fp.list fp Fp.int forced;
  Chassis.fingerprint t.ch fp
    ~key:(function
      | Read m -> (m.r_line * 2) + 0
      | Write w -> (w.m_line * 2) + 1)
    ~payload:(fun fp -> function
      | Read m ->
        Fp.tag fp "R";
        Fp.int fp m.r_line;
        Fp.bool fp m.r_excl;
        Fp.bool fp m.r_valid_only;
        Fp.bool fp m.r_inv;
        Fp.int fp (m.r_downgraded :> int);
        fp_waiters fp m.r_waiters;
        Fp.list fp Msg.fingerprint m.r_queued;
        fp_collector fp m.r_collector
      | Write w ->
        Fp.tag fp "W";
        Fp.int fp w.m_line;
        (match w.m_store with
        | None -> Fp.int fp (-1)
        | Some (mask, values) ->
          Fp.int fp (mask :> int);
          Fp.masked_array fp ~mask values);
        (match w.m_rmw with
        | None -> Fp.int fp (-1)
        | Some (word, amo, _) ->
          Fp.int fp word;
          fp_amo fp amo);
        Fp.int fp (w.m_downgraded :> int);
        Fp.list fp Msg.fingerprint w.m_queued;
        fp_waiters fp w.m_loads;
        fp_collector fp w.m_collector);
  let wbs =
    Hashtbl.fold (fun txn b acc -> (txn, b) :: acc) t.wb_records []
    |> List.sort (fun (t1, b1) (t2, b2) ->
           match compare b1.b_line b2.b_line with
           | 0 -> compare t1 t2
           | c -> c)
  in
  Fp.int fp (List.length wbs);
  List.iter
    (fun (txn, (b : wb_req)) ->
      Fp.txn fp txn;
      Fp.int fp b.b_line;
      Fp.array fp b.b_values)
    wbs

let owned_mask t ~line =
  match line_state t ~line with
  | State.M_E | State.M_M -> Addr.full_mask
  | State.M_S | State.M_I -> Mask.empty
