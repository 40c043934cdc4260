module Mask = Spandex_util.Mask
module Stats = Spandex_util.Stats
module Engine = Spandex_sim.Engine
module Trace = Spandex_sim.Trace
module Msg = Spandex_proto.Msg
module Addr = Spandex_proto.Addr
module State = Spandex_proto.State
module Amo = Spandex_proto.Amo
module Linedata = Spandex_proto.Linedata
module Frames = Spandex_mem.Cache_frame

type reqs_policy = Reqs_auto | Reqs_shared | Reqs_valid | Reqs_owned

type config = {
  llc_id : Msg.device_id;  (* first bank endpoint. *)
  banks : int;  (* lines interleave across bank endpoints
                   [llc_id .. llc_id + banks - 1] (Table VI: NUCA banks). *)
  sets : int;
  ways : int;
  access_latency : int;
  is_mesi : Msg.device_id -> bool;
  reqs_policy : reqs_policy;
}

(* A revocation in flight: [owner] was sent a RvkO / forwarded ReqS covering
   some words; each word is satisfied by a RspRvkO or a crossing ReqWB.
   Tracking is per word because an owner may answer in parts — e.g. a word
   that was mid-RMW at the owner is revoked only after the RMW commits. *)
type awaited = { aw_owner : int; mutable aw_remaining : Mask.t }

let aw_satisfied a = Spandex_util.Mask.is_empty a.aw_remaining

type pending =
  | Fetching of { excl : bool }
  | Upgrading
  | Collecting_acks of { mutable acks_left : int; resume : unit -> unit }
  | Awaiting_wb of { awaited : awaited list; resume : unit -> unit }
  | Purging of {
      mutable acks_left : int;
      awaited : awaited list;
      resume : unit -> unit;
    }

type recall_req = {
  rkind : Backing.recall_kind;
  rk : (int array * bool) option -> unit;
}

type meta = {
  mutable lstate : State.llc_line;
  mutable owned : Mask.t;
  owner : int array;  (* per-word owner id; meaningful where [owned] set. *)
  data : int array;  (* authoritative for words not owned remotely. *)
  mutable sharers : Msg.device_id list;
  mutable dirty : bool;
  mutable backing_excl : bool;
  mutable pending : pending option;
  mutable blocked : Msg.t list;  (* FIFO: oldest first. *)
  mutable recalls : recall_req list;
}

(* Banks, probe ids, stats and the reply cache are the {!Home} layer's;
   [frame] is its tag frame. *)
type t = {
  cfg : config;
  engine : Engine.t;
  backing : Backing.t;
  home : meta Home.t;
  frame : meta Frames.t;
  trace : Trace.t;
  n_recall : int;  (* interned trace name (0 on a disabled sink). *)
}

let stats t line = Home.stats t.home ~line

let fresh_meta () =
  {
    lstate = State.L_I;
    owned = Mask.empty;
    owner = Array.make Addr.words_per_line (-1);
    data = Array.make Addr.words_per_line 0;
    sharers = [];
    dirty = false;
    backing_excl = false;
    pending = None;
    blocked = [];
    recalls = [];
  }

(* ----- messaging helpers -------------------------------------------------- *)

(* Responses to word subsets: an empty mask sends nothing. *)
let respond t (req : Msg.t) ~kind ~mask ?payload () =
  if not (Mask.is_empty mask) then
    Home.respond t.home req ~kind ~mask ?payload ()

let respond_data t (req : Msg.t) meta ~kind ~mask =
  if not (Mask.is_empty mask) then
    let payload = Msg.Data (Linedata.pack ~mask ~full:meta.data) in
    respond t req ~kind ~mask ~payload ()


(* ----- per-word owner bookkeeping ----------------------------------------- *)

(* Group the remotely-owned words of [mask] by owner.  Most requests
   find no owned word, and then neither this nor [words_owned_by] folds. *)
let owner_groups meta mask =
  let owned = Mask.inter mask meta.owned in
  if Mask.is_empty owned then []
  else
    Mask.fold owned ~init:[] ~f:(fun acc w ->
        let o = meta.owner.(w) in
        match List.assoc_opt o acc with
        | Some m -> (o, Mask.add m w) :: List.remove_assoc o acc
        | None -> (o, Mask.singleton w) :: acc)

(* [owner_groups] of the request's mask without the requestor's own. *)
let other_owner_groups meta (msg : Msg.t) =
  match owner_groups meta msg.Msg.mask with
  | [] -> []
  | groups -> List.filter (fun (o, _) -> o <> msg.Msg.requestor) groups

(* Every word of the line owned by [o]. *)
let full_holding meta o =
  Mask.fold meta.owned ~init:Mask.empty ~f:(fun acc w ->
      if meta.owner.(w) = o then Mask.add acc w else acc)

let grant_ownership meta ~mask ~to_ =
  Mask.iter mask ~f:(fun w -> meta.owner.(w) <- to_);
  meta.owned <- Mask.union meta.owned mask

let clear_ownership meta ~mask = meta.owned <- Mask.diff meta.owned mask

let words_owned_by meta ~mask ~owner =
  let owned = Mask.inter mask meta.owned in
  if Mask.is_empty owned then Mask.empty
  else
    Mask.fold owned ~init:Mask.empty ~f:(fun acc w ->
        if meta.owner.(w) = owner then Mask.add acc w else acc)

(* Forward [msg] as [kind] to each group's owner for the group's words,
   counting each forward under [stat]. *)
let rec forward_groups home st (msg : Msg.t) ~kind ~stat = function
  | [] -> ()
  | (o, sub) :: rest ->
    Stats.incr st stat;
    Home.forward home msg ~kind ~dst:o ~mask:sub ();
    forward_groups home st msg ~kind ~stat rest

(* ----- request classification --------------------------------------------- *)

let needs_excl = function
  | Msg.ReqV -> false
  | Msg.ReqS | Msg.ReqWT | Msg.ReqO | Msg.ReqWTdata | Msg.ReqOdata | Msg.ReqWB
    -> true

(* ----- main handler -------------------------------------------------------- *)

let rec handle t (msg : Msg.t) =
  match msg.Msg.kind with
  | Msg.Req k -> handle_req t msg k
  | Msg.Rsp k -> handle_rsp t msg k
  | Msg.Probe _ -> failwith "Llc: received a probe"

and handle_req t (msg : Msg.t) kind =
  let st = stats t msg.Msg.line in
  Home.count_req t.home ~line:msg.Msg.line kind;
  match Frames.find_exn t.frame ~line:msg.Msg.line with
  | exception Not_found ->
    if kind = Msg.ReqWB then begin
      (* A write-back racing with a completed purge: the sender is no longer
         the owner (Table III: "ReqWB from non-owner"). Acknowledge, drop. *)
      Stats.incr st "wb_stale";
      respond t msg ~kind:Msg.RspWB ~mask:msg.Msg.mask ()
    end
    else begin
      Stats.incr st "miss";
      allocate_and_fetch t msg kind
    end
  | meta -> (
    Frames.touch t.frame ~line:msg.Msg.line;
    match meta.pending with
    | Some pending -> (
      match kind with
      | Msg.ReqWB when wb_satisfies pending msg.Msg.src ->
        apply_wb t meta msg;
        respond t msg ~kind:Msg.RspWB ~mask:msg.Msg.mask ();
        mark_satisfied t msg.Msg.line meta pending msg.Msg.src
          ~mask:msg.Msg.mask
      | _ ->
        Stats.incr st "blocked";
        meta.blocked <- meta.blocked @ [ msg ])
    | None ->
      if needs_excl kind && not meta.backing_excl then begin
        Stats.incr st "backing_upgrade";
        meta.pending <- Some Upgrading;
        meta.blocked <- meta.blocked @ [ msg ];
        t.backing.Backing.acquire ~line:msg.Msg.line ~excl:true
          ~k:(fun data ~excl ->
            assert excl;
            (* A parent Inv may have raced past this upgrade (§III-C): our
               copy is stale and the grant carries the fresh line.  Only
               internally-owned words keep their local truth. *)
            (match data with
            | Some d ->
              Mask.iter (Mask.diff Addr.full_mask meta.owned) ~f:(fun w ->
                  meta.data.(w) <- d.(w))
            | None -> ());
            meta.backing_excl <- true;
            meta.pending <- None;
            after_pending t msg.Msg.line)
      end
      else begin
        Stats.incr st "hit";
        dispatch t meta msg kind
      end)

and dispatch t meta (msg : Msg.t) kind =
  match kind with
  | Msg.ReqV -> do_reqv t meta msg
  | Msg.ReqS -> do_reqs t meta msg
  | Msg.ReqWT -> with_no_sharers t meta msg (fun () -> do_reqwt t meta msg)
  | Msg.ReqO -> with_no_sharers t meta msg (fun () -> do_reqo t meta msg)
  | Msg.ReqWTdata ->
    with_no_sharers t meta msg (fun () -> do_reqwtdata t meta msg)
  | Msg.ReqOdata ->
    with_no_sharers t meta msg (fun () ->
        do_grant_with_data t meta msg ~rsp:Msg.RspOdata)
  | Msg.ReqWB ->
    apply_wb t meta msg;
    respond t msg ~kind:Msg.RspWB ~mask:msg.Msg.mask ()

(* Writes to Shared data must invalidate every sharer first and block while
   acks are collected (paper §III-B). The writer itself keeps its copy. *)
and with_no_sharers t meta (msg : Msg.t) next =
  if meta.lstate <> State.L_S then next ()
  else begin
    let targets = List.filter (fun d -> d <> msg.Msg.requestor) meta.sharers in
    meta.sharers <- [];
    meta.lstate <- State.L_V;
    if targets = [] then next ()
    else begin
      Stats.incr (stats t msg.Msg.line) "inv_bursts";
      meta.pending <-
        Some
          (Collecting_acks
             {
               acks_left = List.length targets;
               resume =
                 (fun () ->
                   next ();
                   after_pending t msg.Msg.line);
             });
      List.iter
        (fun d ->
          Stats.incr (stats t msg.Msg.line) "inv_sent";
          Home.probe t.home ~kind:Msg.Inv ~dst:d ~line:msg.Msg.line
            ~mask:Addr.full_mask)
        targets
    end
  end

(* ReqV: no LLC state change, no global ordering (Fig. 1c).  Forwards to
   an owner cover every owned word of the request — not only the demanded
   ones — because the responder "may include any available up-to-date data
   in the line" (Table II); only demanded words are Nacked on a miss. *)
and do_reqv t meta (msg : Msg.t) =
  let local = Mask.diff msg.Msg.mask meta.owned in
  respond_data t msg meta ~kind:Msg.RspV ~mask:local;
  let fwd_words = Mask.inter msg.Msg.mask meta.owned in
  if not (Mask.is_empty fwd_words) then
    List.iter
      (fun (o, sub) ->
        let demanded = Mask.inter sub msg.Msg.demand in
        if o = msg.Msg.requestor then begin
          (* The requestor was granted ownership (e.g. by another of its
             contexts) after issuing this ReqV; the LLC has no data to give.
             Nack so its TU retries and hits locally. *)
          if not (Mask.is_empty demanded) then begin
            Stats.incr (stats t msg.Msg.line) "reqv_self_nack";
            respond t msg ~kind:Msg.Nack ~mask:demanded ()
          end
        end
        else begin
          Stats.incr (stats t msg.Msg.line) "fwd_reqv";
          Home.forward t.home msg ~kind:Msg.ReqV ~dst:o ~mask:sub
            ~demand:demanded ()
        end)
      (owner_groups meta fwd_words)

(* ReqS: option (1) when the line is Shared or a MESI device owns target
   words, option (3) otherwise (§III-B "Supporting Shared State"). *)
and do_reqs t meta (msg : Msg.t) =
  let st = stats t msg.Msg.line in
  let owned_in = Mask.inter msg.Msg.mask meta.owned in
  let groups = owner_groups meta owned_in in
  let any_mesi_owner =
    List.exists (fun (o, _) -> t.cfg.is_mesi o) groups
  in
  let choose_opt1 =
    match t.cfg.reqs_policy with
    | Reqs_auto -> meta.lstate = State.L_S || any_mesi_owner
    | Reqs_shared -> true
    | Reqs_valid | Reqs_owned -> false
  in
  if t.cfg.reqs_policy = Reqs_valid then begin
    (* Option (2): serve like a ReqV; the requestor's TU downgrades the
       data to Invalid after the read, precluding any reuse (§III-B). *)
    Stats.incr st "reqs_opt2";
    do_reqv t meta msg
  end
  else if choose_opt1 then begin
    Stats.incr st "reqs_opt1";
    respond_data t msg meta ~kind:Msg.RspS ~mask:(Mask.diff msg.Msg.mask meta.owned);
    if Mask.is_empty owned_in then begin
      meta.lstate <- State.L_S;
      if not (List.mem msg.Msg.requestor meta.sharers) then
        meta.sharers <- msg.Msg.requestor :: meta.sharers
    end
    else begin
      (* Blocking: the owners must write back before Shared state is
         granted (Table III: ReqS (1) on O data).  Words still registered
         to the requestor itself are special: the request crossed the
         requestor's own write-back (it discarded the line after a partial
         downgrade), so forwarding to it would wedge behind its pending
         read.  Await the crossing ReqWB instead — it is the data carrier
         — and serve those words from the merged LLC data at resume. *)
      let self = words_owned_by meta ~mask:owned_in ~owner:msg.Msg.requestor in
      if not (Mask.is_empty self) then Stats.incr st "reqs_self_wb";
      let fwd_groups =
        List.filter (fun (o, _) -> o <> msg.Msg.requestor) groups
      in
      let awaited =
        List.map
          (fun (o, sub) -> { aw_owner = o; aw_remaining = sub })
          groups
      in
      let mesi_owners =
        List.filter_map
          (fun (o, _) -> if t.cfg.is_mesi o then Some o else None)
          fwd_groups
      in
      meta.pending <-
        Some
          (Awaiting_wb
             {
               awaited;
               resume =
                 (fun () ->
                   meta.lstate <- State.L_S;
                   List.iter
                     (fun d ->
                       if not (List.mem d meta.sharers) then
                         meta.sharers <- d :: meta.sharers)
                     (msg.Msg.requestor :: mesi_owners);
                   respond_data t msg meta ~kind:Msg.RspS ~mask:self;
                   after_pending t msg.Msg.line);
             });
      forward_groups t.home st msg ~kind:Msg.ReqS ~stat:"fwd_reqs" fwd_groups
    end
  end
  else begin
    Stats.incr st "reqs_opt3";
    with_no_sharers t meta msg (fun () ->
        do_grant_with_data t meta msg ~rsp:Msg.RspOdata)
  end

(* ReqWT: the LLC is updated and ownership revoked immediately; prior owners
   are told to downgrade via a forwarded ReqO and respond directly to the
   requestor (Fig. 1d).  No blocking state, no data responses. *)
and do_reqwt t meta (msg : Msg.t) =
  let values = Home.payload msg in
  let self = words_owned_by meta ~mask:msg.Msg.mask ~owner:msg.Msg.requestor in
  let groups = other_owner_groups meta msg in
  Linedata.unpack_into ~mask:msg.Msg.mask ~values ~full:meta.data;
  meta.dirty <- true;
  clear_ownership meta ~mask:msg.Msg.mask;
  let fwd_mask =
    List.fold_left (fun acc (_, sub) -> Mask.union acc sub) Mask.empty groups
  in
  forward_groups t.home (stats t msg.Msg.line) msg ~kind:Msg.ReqO
    ~stat:"fwd_wt_revoke" groups;
  respond t msg ~kind:Msg.RspWT
    ~mask:(Mask.union (Mask.diff msg.Msg.mask fwd_mask) self)
    ()

(* ReqO: non-blocking ownership transfer (Fig. 1a). *)
and do_reqo t meta (msg : Msg.t) =
  let self = words_owned_by meta ~mask:msg.Msg.mask ~owner:msg.Msg.requestor in
  let groups = other_owner_groups meta msg in
  let fwd_mask =
    List.fold_left (fun acc (_, sub) -> Mask.union acc sub) Mask.empty groups
  in
  grant_ownership meta ~mask:msg.Msg.mask ~to_:msg.Msg.requestor;
  forward_groups t.home (stats t msg.Msg.line) msg ~kind:Msg.ReqO
    ~stat:"fwd_reqo" groups;
  respond t msg ~kind:Msg.RspO
    ~mask:(Mask.union (Mask.diff msg.Msg.mask fwd_mask) self)
    ()

(* ReqO+data (and ReqS option (3)): data for words valid at the LLC, a
   forwarded request for remotely-owned words; ownership moves immediately. *)
and do_grant_with_data t meta (msg : Msg.t) ~rsp =
  let local = Mask.diff msg.Msg.mask meta.owned in
  let self = words_owned_by meta ~mask:msg.Msg.mask ~owner:msg.Msg.requestor in
  if not (Mask.is_empty self) then
    (* The requestor already owns these words; its copy is the truth, so no
       data can be supplied.  This only arises from defensive retries. *)
    respond t msg ~kind:Msg.RspO ~mask:self ();
  let groups = other_owner_groups meta msg in
  respond_data t msg meta ~kind:rsp ~mask:local;
  forward_groups t.home (stats t msg.Msg.line) msg ~kind:Msg.ReqOdata
    ~stat:"fwd_reqodata" groups;
  grant_ownership meta ~mask:msg.Msg.mask ~to_:msg.Msg.requestor

(* ReqWT+data: the update happens at the LLC, which must first collect the
   up-to-date data from any remote owner via a blocking RvkO (Fig. 1b). *)
and do_reqwtdata t meta (msg : Msg.t) =
  let groups = owner_groups meta msg.Msg.mask in
  if groups = [] then apply_wtdata t meta msg
  else begin
    let awaited =
      List.map
        (fun (o, _) ->
          (* The owner writes back everything it holds in the line. *)
          { aw_owner = o; aw_remaining = full_holding meta o })
        groups
    in
    meta.pending <-
      Some
        (Awaiting_wb
           {
             awaited;
             resume =
               (fun () ->
                 apply_wtdata t meta msg;
                 after_pending t msg.Msg.line);
           });
    List.iter
      (fun aw ->
        Stats.incr (stats t msg.Msg.line) "rvko_sent";
        Home.probe t.home ~kind:Msg.RvkO ~dst:aw.aw_owner ~line:msg.Msg.line
          ~mask:aw.aw_remaining)
      awaited
  end

and apply_wtdata t meta (msg : Msg.t) =
  assert (Mask.is_empty (Mask.inter msg.Msg.mask meta.owned));
  let returned =
    match msg.Msg.amo with
    | Some amo ->
      assert (Mask.count msg.Msg.mask = 1);
      let w = Mask.lowest msg.Msg.mask in
      let next, ret = Amo.apply amo meta.data.(w) in
      meta.data.(w) <- next;
      Msg.Data [| ret |]
    | None ->
      let values = Home.payload msg in
      let old = Msg.Data (Linedata.pack ~mask:msg.Msg.mask ~full:meta.data) in
      Linedata.unpack_into ~mask:msg.Msg.mask ~values ~full:meta.data;
      old
  in
  meta.dirty <- true;
  respond t msg ~kind:Msg.RspWTdata ~mask:msg.Msg.mask ~payload:returned ()

(* ReqWB: accept data for words still owned by the sender, drop the rest. *)
and apply_wb t meta (msg : Msg.t) =
  let live = words_owned_by meta ~mask:msg.Msg.mask ~owner:msg.Msg.src in
  if Mask.is_empty live then Stats.incr (stats t msg.Msg.line) "wb_stale"
  else begin
    Stats.incr (stats t msg.Msg.line) "wb_live";
    let values = Home.payload msg in
    Linedata.iter ~mask:msg.Msg.mask ~values ~f:(fun ~word ~value ->
        if Mask.mem live word then meta.data.(word) <- value);
    clear_ownership meta ~mask:live;
    meta.dirty <- true
  end

(* ----- pending-state resolution ------------------------------------------- *)

and wb_satisfies pending src =
  let in_awaited awaited =
    List.exists (fun a -> a.aw_owner = src && not (aw_satisfied a)) awaited
  in
  match pending with
  | Awaiting_wb { awaited; _ } -> in_awaited awaited
  | Purging { awaited; _ } -> in_awaited awaited
  | Fetching _ | Upgrading | Collecting_acks _ -> false

and mark_satisfied _t line meta pending src ~mask =
  let satisfy awaited =
    List.iter
      (fun a ->
        if a.aw_owner = src then
          a.aw_remaining <- Mask.diff a.aw_remaining mask)
      awaited;
    List.for_all aw_satisfied awaited
  in
  match pending with
  | Awaiting_wb { awaited; resume } ->
    if satisfy awaited then begin
      meta.pending <- None;
      resume ()
    end
  | Purging ({ awaited; resume; _ } as p) ->
    if satisfy awaited && p.acks_left = 0 then begin
      meta.pending <- None;
      resume ()
    end
  | Fetching _ | Upgrading | Collecting_acks _ ->
    ignore line;
    assert false

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
    | Msg.Ack, Some (Purging p) ->
      p.acks_left <- p.acks_left - 1;
      if p.acks_left = 0 && List.for_all aw_satisfied p.awaited
      then begin
        meta.pending <- None;
        p.resume ()
      end
    | Msg.RspRvkO, Some ((Awaiting_wb { awaited; _ } | Purging { awaited; _ }) as p)
      -> (
      match
        List.find_opt
          (fun a -> a.aw_owner = msg.Msg.src && not (aw_satisfied a))
          awaited
      with
      | None -> Stats.incr (stats t msg.Msg.line) "rvko_dup"
      | Some a ->
        (match msg.Msg.payload with
        | Msg.Data values ->
          Linedata.iter ~mask:msg.Msg.mask ~values ~f:(fun ~word ~value ->
              if Mask.mem meta.owned word && meta.owner.(word) = msg.Msg.src
              then meta.data.(word) <- value);
          meta.dirty <- true
        | Msg.No_data ->
          (* The data travelled in a crossing ReqWB already merged. *)
          ());
        clear_ownership meta
          ~mask:
            (words_owned_by meta
               ~mask:(Mask.inter a.aw_remaining msg.Msg.mask)
               ~owner:a.aw_owner);
        mark_satisfied t msg.Msg.line meta p msg.Msg.src ~mask:msg.Msg.mask)
    | (Msg.Ack | Msg.RspRvkO), _ ->
      Stats.incr (stats t msg.Msg.line) "rsp_orphan"
    | _ -> failwith "Llc: unexpected response kind")

(* After a pending state clears: serve queued recalls first, then replay
   blocked requests in arrival order. *)
and after_pending t line =
  match Frames.find_exn t.frame ~line with
  | exception Not_found -> ()
  | meta ->
    if meta.pending = None then begin
      match meta.recalls with
      | r :: rest ->
        meta.recalls <- rest;
        start_recall t line meta r
      | [] -> (
        match meta.blocked with
        | [] -> ()
        | msgs ->
          meta.blocked <- [];
          List.iter (fun m -> handle t m) msgs)
    end

(* ----- allocation, eviction, recall ---------------------------------------- *)

and can_evict ~line:_ meta =
  meta.pending = None && meta.blocked = [] && meta.recalls = []
  && Mask.is_empty meta.owned && meta.sharers = []

and allocate_and_fetch t (msg : Msg.t) kind =
  let line = msg.Msg.line in
  let st = stats t line in
  let meta = fresh_meta () in
  let insert () = Frames.insert t.frame ~line meta ~can_evict in
  let start_fetch () =
    meta.pending <- Some (Fetching { excl = needs_excl kind });
    meta.blocked <- [ msg ];
    t.backing.Backing.acquire ~line ~excl:(needs_excl kind)
      ~k:(fun data ~excl ->
        (match data with
        | Some d -> Array.blit d 0 meta.data 0 Addr.words_per_line
        | None -> failwith "Llc: fetch returned no data");
        meta.lstate <- State.L_V;
        meta.backing_excl <- excl;
        meta.pending <- None;
        after_pending t line)
  in
  match insert () with
  | Frames.Inserted ->
    Stats.incr st "fill";
    start_fetch ()
  | Frames.Evicted (vline, vmeta) ->
    Stats.incr st "evict";
    (* [vline] shares the bank with [line]: evictions stay in-set. *)
    t.backing.Backing.writeback ~line:vline ~data:(Array.copy vmeta.data)
      ~dirty:vmeta.dirty
      ~k:(fun () -> ());
    Stats.incr st "fill";
    start_fetch ()
  | Frames.No_room -> begin
    (* Every clean way is pinned: purge a busy-but-stable victim in the same
       set (revoking owners / invalidating sharers), then retry. *)
    match find_purge_victim t line with
    | Some (vline, vmeta) ->
      Stats.incr st "evict_purge";
      purge t vline vmeta ~keep_line:false ~inv_sharers:true
        ~k:(fun (data, dirty) ->
          t.backing.Backing.writeback ~line:vline ~data ~dirty
            ~k:(fun () -> ());
          handle t msg)
    | None ->
      Stats.incr st "alloc_stall";
      Engine.schedule t.engine ~delay:8 (fun () -> handle t msg)
  end

and find_purge_victim t line =
  Frames.lru_matching t.frame ~set_line:line ~f:(fun ~line:_ m ->
      m.pending = None && m.recalls = [])

(* Bring [line] to an unowned (and, when [inv_sharers], unshared) state; [k]
   receives the merged data and dirtiness.  With [keep_line:false] the line
   is removed and its queued requests are replayed (they will re-fetch). *)
and purge t line meta ~keep_line ~inv_sharers ~k =
  let sharers = if inv_sharers then meta.sharers else [] in
  if inv_sharers then begin
    meta.sharers <- [];
    if meta.lstate = State.L_S then meta.lstate <- State.L_V
  end;
  let groups = owner_groups meta meta.owned in
  let awaited =
    List.map
      (fun (o, sub) -> { aw_owner = o; aw_remaining = sub })
      groups
  in
  let finish () =
    let data = Array.copy meta.data in
    let dirty = meta.dirty in
    if keep_line then begin
      k (data, dirty);
      after_pending t line
    end
    else begin
      let queued = meta.blocked in
      meta.blocked <- [];
      let recalls = meta.recalls in
      meta.recalls <- [];
      Frames.remove t.frame ~line;
      k (data, dirty);
      (* A parent recall queued behind this purge finds the line gone; the
         backing answers it from the write-back record the purge's own
         surrender (k) just created. *)
      List.iter (fun r -> r.rk None) recalls;
      List.iter (fun m -> handle t m) queued
    end
  in
  if sharers = [] && awaited = [] then finish ()
  else begin
    meta.pending <-
      Some
        (Purging { acks_left = List.length sharers; awaited; resume = finish });
    List.iter
      (fun d ->
        Stats.incr (stats t line) "inv_sent";
        Home.probe t.home ~kind:Msg.Inv ~dst:d ~line ~mask:Addr.full_mask)
      sharers;
    List.iter
      (fun a ->
        Stats.incr (stats t line) "rvko_sent";
        Home.probe t.home ~kind:Msg.RvkO ~dst:a.aw_owner ~line
          ~mask:a.aw_remaining)
      awaited
  end

(* Parent recall (hierarchical GPU L2 use only). *)
and start_recall t line meta (r : recall_req) =
  Stats.incr (stats t line) "recall";
  match r.rkind with
  | Backing.Recall_shared ->
    (* Surrender internal ownership but keep a (now clean, shared) copy;
       internal read-only sharers remain valid. *)
    purge t line meta ~keep_line:true ~inv_sharers:false
      ~k:(fun (data, dirty) ->
        meta.backing_excl <- false;
        meta.dirty <- false;
        r.rk (Some (data, dirty)))
  | Backing.Recall_excl ->
    purge t line meta ~keep_line:false ~inv_sharers:true
      ~k:(fun (data, dirty) -> r.rk (Some (data, dirty)))

and handle_recall t ~line ~kind ~k =
  match Frames.find_exn t.frame ~line with
  | exception Not_found ->
    (* arg -1: the line is absent (answered from a write-back record). *)
    if Trace.on t.trace then
      Trace.instant t.trace ~time:(Engine.now t.engine)
        ~dev:(Home.endpoint t.home ~line) ~name:t.n_recall ~txn:(-1) ~arg:(-1);
    k None
  | meta ->
    let r = { rkind = kind; rk = k } in
    (* arg encodes the pending state the recall found: 0 idle, then the
       1-based constructor index of [pending]. *)
    if Trace.on t.trace then
      Trace.instant t.trace ~time:(Engine.now t.engine)
        ~dev:(Home.endpoint t.home ~line) ~name:t.n_recall ~txn:(-1)
        ~arg:
          (match meta.pending with
          | None -> 0
          | Some (Fetching _) -> 1
          | Some Upgrading -> 2
          | Some (Collecting_acks _) -> 3
          | Some (Awaiting_wb _) -> 4
          | Some (Purging _) -> 5);
    if meta.pending = None then start_recall t line meta r
    else meta.recalls <- meta.recalls @ [ r ]

(* ----- construction and introspection -------------------------------------- *)

(* Requests whose processing must be exactly-once, so the reply cache
   ({!Home.listen}) answers their duplicates: a retried ReqWTdata cannot
   apply its AMO twice and a retried ReqOdata gets the original data grant
   back.  Everything that mutates ownership registration or LLC data is
   guarded: reprocessing a stale duplicate of a completed ReqO would
   re-register the old requestor (rolling back a later transfer and
   routing future forwards to an L1 that already relinquished the words),
   and a duplicate racing its own forward would take the retry-recovery
   "requestor already registered" path and grant ownership while the
   forwarded revocation is still in flight to the old owner.  ReqWB is
   ownership-checked in [apply_wb], but that check is epoch-blind: if the
   writer re-acquires the same words after the write-back completed, a
   stale retry of that ReqWB (sent because the RspWB ack was lost) passes
   the check and deregisters words the L1 still holds dirty.  Only ReqV
   reads without mutating and stays naturally idempotent. *)
let replay_guarded = function
  | Msg.ReqOdata | Msg.ReqWTdata | Msg.ReqS | Msg.ReqWT | Msg.ReqO
  | Msg.ReqWB ->
    true
  | Msg.ReqV -> false

(* A line's live work for the engine's pending-source reports: its
   pending, blocked and recall-queued state (the backing reports its own
   work). *)
let describe m item acc =
  let acc =
    match m.pending with
    | None -> acc
    | Some (Fetching _) -> item "fetching from backing" :: acc
    | Some Upgrading -> item "upgrading at backing" :: acc
    | Some (Collecting_acks c) ->
      item (Printf.sprintf "collecting %d inv ack(s)" c.acks_left) :: acc
    | Some (Awaiting_wb { awaited; _ }) ->
      item
        (Printf.sprintf "awaiting %d write-back(s)"
           (List.length (List.filter (fun a -> not (aw_satisfied a)) awaited)))
      :: acc
    | Some (Purging _) -> item "purging" :: acc
  in
  let acc =
    if m.blocked = [] then acc
    else
      item (Printf.sprintf "%d blocked request(s)" (List.length m.blocked))
      :: acc
  in
  if m.recalls = [] then acc
  else
    item (Printf.sprintf "%d queued recall(s)" (List.length m.recalls)) :: acc

let probes =
  {
    Home.tag = "llc";
    lines_metric = "spandex_llc_bank_lines";
    lines_help = "resident lines per LLC bank";
    pending_help = "lines with an in-flight home transaction";
  }

let view =
  {
    Home.busy = (fun m -> m.pending <> None);
    blocked = (fun m -> List.length m.blocked);
    describe;
  }

let create ~name engine net backing (cfg : config) =
  let home =
    Home.create engine net ~name ~first_id:cfg.llc_id ~banks:cfg.banks
      ~sets:cfg.sets ~ways:cfg.ways ~access_latency:cfg.access_latency
      ~guarded:replay_guarded probes view
  in
  let trace = Engine.trace engine in
  let t =
    {
      cfg;
      engine;
      backing;
      home;
      frame = Home.frame home;
      trace;
      n_recall = Trace.name trace "llc.recall";
    }
  in
  Home.listen home (handle t);
  (* Every bank shares the backing; the recall dispatcher routes by line. *)
  backing.Backing.set_recall_handler (fun ~line ~kind ~k ->
      handle_recall t ~line ~kind ~k);
  t

let bank_stats t b = Home.bank_stats t.home b

let line_state t ~line =
  Option.map (fun m -> m.lstate) (Frames.find t.frame ~line)

let owner_of t { Addr.line; word } =
  match Frames.find t.frame ~line with
  | Some m when Mask.mem m.owned word -> Some m.owner.(word)
  | Some _ | None -> None

let owned_mask t ~line =
  match Frames.find t.frame ~line with
  | Some m -> m.owned
  | None -> Mask.empty

let sharers t ~line =
  match Frames.find t.frame ~line with Some m -> m.sharers | None -> []

let peek_word t { Addr.line; word } =
  Option.map (fun m -> m.data.(word)) (Frames.find t.frame ~line)

(* ----- model-checker introspection ----------------------------------------- *)

module Fp = Spandex_util.Fingerprint

let fp_awaited fp awaited =
  let aws =
    List.map (fun a -> (a.aw_owner, (a.aw_remaining :> int))) awaited
    |> List.sort compare
  in
  Fp.list fp
    (fun fp (o, m) ->
      Fp.int fp o;
      Fp.int fp m)
    aws

let fp_pending fp = function
  | None -> Fp.tag fp "-"
  | Some (Fetching { excl }) ->
    Fp.tag fp "F";
    Fp.bool fp excl
  | Some Upgrading -> Fp.tag fp "U"
  | Some (Collecting_acks c) ->
    Fp.tag fp "C";
    Fp.int fp c.acks_left
  | Some (Awaiting_wb { awaited; _ }) ->
    Fp.tag fp "W";
    fp_awaited fp awaited
  | Some (Purging { acks_left; awaited; _ }) ->
    Fp.tag fp "P";
    Fp.int fp acks_left;
    fp_awaited fp awaited

let fingerprint t fp =
  Home.fingerprint t.home fp ~line:(fun fp m ->
      Fp.int fp
        (match m.lstate with State.L_I -> 0 | State.L_V -> 1 | State.L_S -> 2);
      Fp.int fp (m.owned :> int);
      Mask.iter m.owned ~f:(fun w -> Fp.int fp m.owner.(w));
      (* Words owned remotely are stale here; exclude them so the
         fingerprint tracks only authoritative data. *)
      Fp.masked_array fp ~mask:(Mask.diff Addr.full_mask m.owned) m.data;
      Fp.list fp Fp.int (List.sort compare m.sharers);
      Fp.bool fp m.dirty;
      Fp.bool fp m.backing_excl;
      fp_pending fp m.pending;
      Fp.list fp Msg.fingerprint m.blocked;
      Fp.int fp (List.length m.recalls))

let parts t = Home.parts t.home ~fingerprint:(fingerprint t)
