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
module Spandex_policy = Spandex_l1.Spandex_policy

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
  atomics_at_llc : bool;
  region_of : int -> int;
      (* software-provided region classification by line (paper II-C:
         DeNovo regions); [fun _ -> 0] when the program has no regions. *)
  policy : Spandex_policy.spec;
}

type line = {
  data : int array;
  mutable valid : Mask.t;  (* V words: self-invalidated at acquires. *)
  mutable owned : Mask.t;  (* O words: survive acquires. *)
}

type read_miss = {
  r_line : int;
  r_collector : Tu.t;
  mutable r_waiters : (int * (int -> unit)) list;
  r_epoch : int;
  mutable r_retries : int;
  r_own_mask : Mask.t;
      (* words requested with ReqO+data — after Nack conversion (III-C) or
         by policy promotion: the grant carries ownership, which must be
         installed as Owned — the LLC registers this cache as their owner. *)
}

(* A drained store-buffer entry waiting for its ReqO grant.  The values are
   the truth for these words from the moment the LLC serializes the grant,
   so external requests are answered from here ("up-to-date data is
   available: the pending request is a ReqO", §III-C case 1). *)
type own_req = {
  o_line : int;
  o_mask : Mask.t;
  o_values : int array;
  o_collector : Tu.t;
  mutable o_stolen : Mask.t;  (* downgraded away before local commit. *)
  o_through : bool;
      (* issued as a write-through (adaptive policy): completion leaves the
         words Valid, not Owned, and externals are never forwarded here. *)
}

(* A pending ReqO+data for a local RMW: externals that need the word's data
   must wait for it to arrive (§III-C case 1). *)
type rmw_req = {
  w_line : int;
  w_word : int;
  w_amo : Amo.t;
  w_collector : Tu.t;
  mutable w_stolen : bool;  (* a data-less fwd ReqO took the word. *)
  mutable w_queued : Msg.t list;  (* delayed externals, FIFO. *)
  w_k : int -> unit;
}

type atomic_req = { at_k : int -> unit }

(* A replaced-Owned write-back: data retained until RspWB (§III-A). *)
type wb_req = { b_line : int; b_mask : Mask.t; b_values : int array }

type outstanding =
  | Read of read_miss
  | Own of own_req
  | Rmw of rmw_req
  | Atomic of atomic_req

type t = {
  ch : outstanding Chassis.t;
  cfg : config;
  frame : line Cache_frame.t;
  (* Write-backs in flight, keyed by transaction id; outside the MSHR file
     because the record must exist from the instant the words leave the
     frame (cf. Mesi_l1.wb_records). *)
  wb_records : (int, wb_req) Hashtbl.t;
  (* Per-request classification (the Spandex flexibility knob): static for
     classic DeNovo, reuse-predicted for the adaptive configurations. *)
  policy : Policy.t;
  k_store_hit_owned : Stats.key;
  k_wt_chosen : Stats.key;
  k_reqo_issued : Stats.key;
  k_reqo_words : Stats.key;
  k_wb_issued : Stats.key;
  mutable epoch : int;
}

let send t msg = Chassis.send t.ch msg

let request t ~txn ~kind ~line ~mask ?demand ?payload ?amo () =
  Chassis.request t.ch ~txn ~kind ~line ~mask ?demand ?payload ?amo ()

let free_txn t ~txn = Chassis.free_txn t.ch ~txn

let reply t (msg : Msg.t) ~kind ~dst ~mask ?payload () =
  Chassis.reply t.ch msg ~kind ~dst ~mask ?payload ()

(* ----- frame management ----------------------------------------------------- *)

let send_wb t ~line ~mask ~values =
  let txn = Chassis.fresh_txn t.ch in
  Hashtbl.replace t.wb_records txn { b_line = line; b_mask = mask; b_values = values };
  Stats.bump t.ch.Chassis.stats t.k_wb_issued;
  request t ~txn ~kind:Msg.ReqWB ~line ~mask
    ~payload:(Msg.pooled_pack ~mask ~full:values)
    ()

let get_or_alloc t line_id =
  match Cache_frame.find_exn t.frame ~line:line_id with
  | l -> l
  | exception Not_found -> (
    let fresh =
      {
        data = Array.make Addr.words_per_line 0;
        valid = Mask.empty;
        owned = Mask.empty;
      }
    in
    match
      Cache_frame.insert t.frame ~line:line_id fresh ~can_evict:(fun ~line:_ _ ->
          true)
    with
    | Cache_frame.Inserted -> fresh
    | Cache_frame.Evicted (vline, vmeta) ->
      Stats.incr t.ch.Chassis.stats "evictions";
      if not (Mask.is_empty vmeta.owned) then
        send_wb t ~line:vline ~mask:vmeta.owned
          ~values:(Array.copy vmeta.data);
      fresh
    | Cache_frame.No_room -> assert false)

(* ----- write-through of the store buffer as ownership requests -------------- *)

let writes_pending t =
  let n = ref 0 in
  Mshr.iter t.ch.Chassis.outstanding ~f:(fun ~txn:_ -> function
    | Own _ | Atomic _ -> incr n
    | Read _ | Rmw _ -> ());
  !n

let rec drain t =
  match Store_buffer.peek_oldest_exn t.ch.Chassis.sb with
  | exception Not_found -> Chassis.check_release t.ch
  | e ->
    if not (Chassis.entry_ready t.ch e.Store_buffer.line) then
      Chassis.arm_drain t.ch ~delay:(max 1 t.cfg.coalesce_window)
    else if Mshr.is_full t.ch.Chassis.outstanding then ()
    else begin
      let e = Store_buffer.take_oldest_exn t.ch.Chassis.sb in
      let through =
        t.policy.Policy.classify_write ~line:e.Store_buffer.line
        = Policy.Write_through
      in
      let record =
        {
          o_line = e.Store_buffer.line;
          o_mask = e.Store_buffer.mask;
          o_values = Array.copy e.Store_buffer.values;
          o_collector = Tu.create ~demand:e.Store_buffer.mask;
          o_stolen = Mask.empty;
          o_through = through;
        }
      in
      (match Mshr.alloc t.ch.Chassis.outstanding (Own record) with
      | Some txn ->
        if through then begin
          Stats.bump t.ch.Chassis.stats t.k_wt_chosen;
          t.policy.Policy.on_write_through ~line:e.Store_buffer.line;
          request t ~txn ~kind:Msg.ReqWT ~line:e.Store_buffer.line
            ~mask:e.Store_buffer.mask
            ~payload:
              (Msg.pooled_pack ~mask:e.Store_buffer.mask
                 ~full:e.Store_buffer.values)
            ()
        end
        else begin
          Stats.bump t.ch.Chassis.stats t.k_reqo_issued;
          Stats.bump_by t.ch.Chassis.stats t.k_reqo_words
            (Mask.count e.Store_buffer.mask);
          (* Ownership without data: every requested word is overwritten. *)
          request t ~txn ~kind:Msg.ReqO ~line:e.Store_buffer.line
            ~mask:e.Store_buffer.mask ()
        end
      | None -> assert false);
      Store_buffer.release t.ch.Chassis.sb e;
      Chassis.wake_stalled t.ch;
      drain t
    end

let commit_own t (o : own_req) =
  let commit = Mask.diff o.o_mask o.o_stolen in
  if not (Mask.is_empty commit) then begin
    let l = get_or_alloc t o.o_line in
    Mask.iter commit ~f:(fun w -> l.data.(w) <- o.o_values.(w));
    if o.o_through then
      (* Write-through completion: the LLC holds the data; our copy is a
         Valid replica. *)
      l.valid <- Mask.union l.valid commit
    else begin
      l.owned <- Mask.union l.owned commit;
      l.valid <- Mask.diff l.valid commit
    end
  end

(* ----- pending-write lookup (for local loads and external requests) --------- *)

let find_own_covering ?(include_through = true) t ~line ~word =
  if Mshr.count t.ch.Chassis.outstanding = 0 then None
  else
  match
    Mshr.find_first_exn t.ch.Chassis.outstanding ~f:(function
      | Own o ->
        o.o_line = line
        && (include_through || not o.o_through)
        && Mask.mem (Mask.diff o.o_mask o.o_stolen) word
      | _ -> false)
  with
  | Own o -> Some o
  | _ -> None
  | exception Not_found -> None

let find_rmw_covering t ~line ~word =
  if Mshr.count t.ch.Chassis.outstanding = 0 then None
  else
  match
    Mshr.find_first_exn t.ch.Chassis.outstanding ~f:(function
      | Rmw r -> r.w_line = line && r.w_word = word && not r.w_stolen
      | _ -> false)
  with
  | Rmw r -> Some r
  | _ -> None
  | exception Not_found -> None

let find_wb_covering t ~line ~word =
  if Hashtbl.length t.wb_records = 0 then None
  else
  Hashtbl.fold
    (fun _ (b : wb_req) acc ->
      if b.b_line = line && Mask.mem b.b_mask word then Some b else acc)
    t.wb_records None

(* Any write-side transaction alive for [line]: a promoted (ReqO+data) read
   issued beside one could be answered with a data-less self-grant. *)
let line_write_pending t ~line =
  (Mshr.count t.ch.Chassis.outstanding > 0
  && Mshr.exists t.ch.Chassis.outstanding ~f:(function
       | Own o -> o.o_line = line
       | Rmw r -> r.w_line = line
       | Read _ | Atomic _ -> false))
  || Hashtbl.length t.wb_records > 0
     && Hashtbl.fold
          (fun _ (b : wb_req) acc -> acc || b.b_line = line)
          t.wb_records false

(* ----- loads ---------------------------------------------------------------- *)

let install_fill t (m : read_miss) (r : Tu.result) =
  (* Ownership granted by a converted or promoted read is installed
     unconditionally: the LLC now lists this cache as the owner (and Owned
     data survives acquires, so the epoch guard does not apply to it). *)
  let granted = Mask.inter r.Tu.data_mask m.r_own_mask in
  if not (Mask.is_empty granted) then begin
    let l = get_or_alloc t m.r_line in
    Mask.iter granted ~f:(fun w -> l.data.(w) <- r.Tu.values.(w));
    l.owned <- Mask.union l.owned granted;
    l.valid <- Mask.diff l.valid granted
  end;
  if m.r_epoch = t.epoch then begin
    let l = get_or_alloc t m.r_line in
    (* Only words still Invalid locally take the fill; Owned (and locally
       written Valid) words keep the local copy. *)
    let fresh =
      Mask.diff (Mask.diff r.Tu.data_mask granted) (Mask.union l.valid l.owned)
    in
    Mask.iter fresh ~f:(fun w -> l.data.(w) <- r.Tu.values.(w));
    l.valid <- Mask.union l.valid fresh
  end
  else Stats.incr t.ch.Chassis.stats "stale_fill_dropped"

let rec load t (addr : Addr.t) ~k =
  (* The hit paths apply [k] through the engine's closure-free Apply event;
     [done_] is deliberately not a local closure so a load hit allocates
     nothing. *)
  let { Addr.line; word } = addr in
  match Store_buffer.forward t.ch.Chassis.sb ~addr with
  | Some v ->
    Stats.bump t.ch.Chassis.stats t.ch.Chassis.k_load_sb_fwd;
    Engine.apply_later t.ch.Chassis.engine ~delay:t.cfg.hit_latency k v
  | None -> (
    match find_own_covering t ~line ~word with
    | Some o ->
      Stats.bump t.ch.Chassis.stats t.ch.Chassis.k_load_sb_fwd;
      Engine.apply_later t.ch.Chassis.engine ~delay:t.cfg.hit_latency k
        o.o_values.(word)
    | None -> (
    match find_wb_covering t ~line ~word with
    | Some b ->
      (* The word is mid-write-back: the LLC still lists us as owner, so a
         ReqV would be forwarded right back; serve the retained data. *)
      Stats.incr t.ch.Chassis.stats "load_wb_fwd";
      Engine.apply_later t.ch.Chassis.engine ~delay:t.cfg.hit_latency k
        b.b_values.(word)
    | None when find_rmw_covering t ~line ~word <> None ->
      (* Another context's RMW to this word is mid-grant; once it commits
         the load hits the owned word locally. *)
      Stats.incr t.ch.Chassis.stats "load_rmw_defer";
      Engine.schedule t.ch.Chassis.engine ~delay:3 (fun () -> load t addr ~k)
    | None -> (
      match Cache_frame.find_exn t.frame ~line with
      | l when Mask.mem (Mask.union l.valid l.owned) word ->
        Stats.bump t.ch.Chassis.stats t.ch.Chassis.k_load_hit;
        Cache_frame.touch t.frame ~line;
        Engine.apply_later t.ch.Chassis.engine ~delay:t.cfg.hit_latency k
          l.data.(word)
      | _ | (exception Not_found) -> (
        Stats.bump t.ch.Chassis.stats t.ch.Chassis.k_load_miss;
        match
          Mshr.find_first_exn t.ch.Chassis.outstanding ~f:(function
            | Read m -> m.r_line = line && m.r_epoch = t.epoch
            | _ -> false)
        with
        | Read m ->
          Stats.incr t.ch.Chassis.stats "load_miss_coalesced";
          m.r_waiters <- (word, k) :: m.r_waiters
        | _ -> assert false
        | exception Not_found -> (
          let have =
            match Cache_frame.find_exn t.frame ~line with
            | l -> Mask.union l.valid l.owned
            | exception Not_found -> Mask.empty
          in
          let mask = Mask.diff Addr.full_mask have in
          (* Per-request read classification: repeated misses to a line may
             promote the ReqV to a ReqO+data whose fill installs as Owned
             and survives later acquires.  Promotion is suppressed while
             any write-side transaction is alive for the line — the LLC
             could answer with a data-less self-grant. *)
          let promote =
            match t.policy.Policy.classify_read ~line Policy.absent with
            | Policy.Read_own -> not (line_write_pending t ~line)
            | Policy.Read_valid | Policy.Read_shared -> false
          in
          if promote then begin
            Stats.incr t.ch.Chassis.stats "load_promoted_own";
            let m =
              {
                r_line = line;
                r_collector = Tu.create ~demand:mask;
                r_waiters = [ (word, k) ];
                r_epoch = t.epoch;
                r_retries = 0;
                r_own_mask = mask;
              }
            in
            match Mshr.alloc t.ch.Chassis.outstanding (Read m) with
            | Some txn -> request t ~txn ~kind:Msg.ReqOdata ~line ~mask ()
            | None ->
              Stats.incr t.ch.Chassis.stats "mshr_stall";
              Engine.schedule t.ch.Chassis.engine ~delay:4 (fun () ->
                  load t addr ~k)
          end
          else
            let demand = Mask.singleton word in
            let m =
              {
                r_line = line;
                r_collector = Tu.create ~demand;
                r_waiters = [ (word, k) ];
                r_epoch = t.epoch;
                r_retries = 0;
                r_own_mask = Mask.empty;
              }
            in
            match Mshr.alloc t.ch.Chassis.outstanding (Read m) with
            | Some txn ->
              (* Word-granularity demand, opportunistic line fill
                 (Table II: ReqV "flexible"). *)
              request t ~txn ~kind:Msg.ReqV ~line ~mask ~demand ()
            | None ->
              Stats.incr t.ch.Chassis.stats "mshr_stall";
              Engine.schedule t.ch.Chassis.engine ~delay:4 (fun () ->
                  load t addr ~k))))))

and complete_read t ~txn (m : read_miss) (r : Tu.result) =
  free_txn t ~txn;
  install_fill t m r;
  let covered, uncovered =
    List.partition (fun (w, _) -> Mask.mem r.Tu.data_mask w) m.r_waiters
  in
  List.iter (fun (w, k) -> k r.Tu.values.(w)) (List.rev covered);
  (* Waiters whose word was not in this fill re-enter the load path. *)
  List.iter
    (fun (w, k) -> load t { Addr.line = m.r_line; word = w } ~k)
    (List.rev uncovered);
  drain t

and handle_read_nacks t ~txn (m : read_miss) (r : Tu.result) =
  Chassis.trace_nack t.ch ~txn ~count:(Mask.count r.Tu.nacked);
  if m.r_retries < t.cfg.max_reqv_retries then begin
    let m' =
      {
        m with
        r_collector = Tu.create ~demand:r.Tu.nacked;
        r_retries = m.r_retries + 1;
      }
    in
    match seed_collector m' r with
    | Some r' ->
      (* A retransmitted response already supplied data for every Nacked
         word: the fresh collector is complete before any retry goes out. *)
      complete_read t ~txn m' r'
    | None -> (
      Stats.incr t.ch.Chassis.stats "reqv_retry";
      free_txn t ~txn;
      match Mshr.alloc t.ch.Chassis.outstanding (Read m') with
      | Some txn' ->
        request t ~txn:txn' ~kind:Msg.ReqV ~line:m.r_line ~mask:r.Tu.nacked
          ~demand:r.Tu.nacked ();
        Chassis.trace_chain t.ch ~txn ~txn'
      | None -> assert false)
  end
  else begin
    (* Convert to ReqO+data to enforce ordering (§III-C case 3). *)
    let m' =
      {
        m with
        r_collector = Tu.create ~demand:r.Tu.nacked;
        r_own_mask = r.Tu.nacked;
      }
    in
    match seed_collector m' r with
    | Some r' -> complete_read t ~txn m' r'
    | None -> (
      Stats.incr t.ch.Chassis.stats "reqv_converted";
      free_txn t ~txn;
      match Mshr.alloc t.ch.Chassis.outstanding (Read m') with
      | Some txn' ->
        request t ~txn:txn' ~kind:Msg.ReqOdata ~line:m.r_line ~mask:r.Tu.nacked
          ();
        Chassis.trace_chain t.ch ~txn ~txn'
      | None -> assert false)
  end

and seed_collector (m : read_miss) (r : Tu.result) =
  if Mask.is_empty r.Tu.data_mask then None
  else
    Tu.absorb m.r_collector
      (Msg.make ~txn:0 ~kind:(Msg.Rsp Msg.RspV) ~line:m.r_line
         ~mask:r.Tu.data_mask
         ~payload:
           (Msg.pooled_pack ~mask:r.Tu.data_mask ~full:r.Tu.values)
         ~src:0 ~dst:0 ())

(* ----- stores --------------------------------------------------------------- *)

let rec store t (addr : Addr.t) ~value ~k =
  let { Addr.line; word } = addr in
  match Cache_frame.find_exn t.frame ~line with
  | l when Mask.mem l.owned word ->
    Stats.bump t.ch.Chassis.stats t.k_store_hit_owned;
    t.policy.Policy.on_store_hit_owned ~line;
    l.data.(word) <- value;
    Engine.schedule t.ch.Chassis.engine ~delay:t.cfg.hit_latency k
  | _ | (exception Not_found) -> (
    match
      Store_buffer.push t.ch.Chassis.sb ~addr ~value
        ~now:(Engine.now t.ch.Chassis.engine)
    with
    | `Coalesced | `New ->
      Stats.bump t.ch.Chassis.stats t.ch.Chassis.k_stores;
      Chassis.arm_drain t.ch ~delay:1;
      Engine.schedule t.ch.Chassis.engine ~delay:t.cfg.hit_latency k
    | `Full -> Chassis.stall_store t.ch (fun () -> store t addr ~value ~k))

(* ----- serving external requests ------------------------------------------- *)

(* Answer [msg] for [words] with their data taken from [values]. *)
let respond_words t (msg : Msg.t) ~kind ~dst ~words ~values =
  if not (Mask.is_empty words) then
    reply t msg ~kind ~dst ~mask:words
      ~payload:(Msg.pooled_pack ~mask:words ~full:values)
      ()

(* Serve [words] held (or about to be held) Owned here, whose data is in
   [values]; [downgrade] gives them up when the request takes ownership. *)
let serve t (msg : Msg.t) ~words ~values ~downgrade =
  if not (Mask.is_empty words) then begin
    match msg.Msg.kind with
    | Msg.Req Msg.ReqV ->
      (* No state change (Table IV: expected O, next O). *)
      respond_words t msg ~kind:Msg.RspV ~dst:msg.Msg.requestor ~words ~values
    | Msg.Req Msg.ReqO ->
      downgrade words;
      reply t msg ~kind:Msg.RspO ~dst:msg.Msg.requestor ~mask:words ()
    | Msg.Req Msg.ReqOdata ->
      downgrade words;
      respond_words t msg ~kind:Msg.RspOdata ~dst:msg.Msg.requestor ~words
        ~values
    | Msg.Req Msg.ReqS ->
      (* DeNovo has no Shared state: surrender the data to both the
         requestor and the LLC and fall to Invalid. *)
      downgrade words;
      respond_words t msg ~kind:Msg.RspS ~dst:msg.Msg.requestor ~words ~values;
      respond_words t msg ~kind:Msg.RspRvkO ~dst:msg.Msg.src ~words ~values
    | Msg.Probe Msg.RvkO ->
      downgrade words;
      respond_words t msg ~kind:Msg.RspRvkO ~dst:msg.Msg.src ~words ~values
    | _ -> assert false
  end

(* ----- RMWs ----------------------------------------------------------------- *)

let rec finish_rmw t ~txn (r : rmw_req) ~value =
  let next, old = Amo.apply r.w_amo value in
  free_txn t ~txn;
  if (not r.w_stolen) && r.w_queued = [] then begin
    let l = get_or_alloc t r.w_line in
    l.data.(r.w_word) <- next;
    l.owned <- Mask.add l.owned r.w_word;
    l.valid <- Mask.remove l.valid r.w_word
  end
  else begin
    Stats.incr t.ch.Chassis.stats "rmw_intercepted";
    (* The word was (or is being) taken: serve the delayed externals with
       the post-RMW value, keeping nothing locally. *)
    let l = get_or_alloc t r.w_line in
    l.data.(r.w_word) <- next;
    if not r.w_stolen then l.owned <- Mask.add l.owned r.w_word;
    let queued = r.w_queued in
    r.w_queued <- [];
    List.iter (fun m -> external_req t m) queued
  end;
  r.w_k old;
  drain t

and rmw t (addr : Addr.t) amo ~k =
  let { Addr.line; word } = addr in
  if t.cfg.atomics_at_llc then begin
    Stats.incr t.ch.Chassis.stats "rmw_at_llc";
    (match Cache_frame.find_exn t.frame ~line with
    | l -> l.valid <- Mask.remove l.valid word
    | exception Not_found -> ());
    match Mshr.alloc t.ch.Chassis.outstanding (Atomic { at_k = k }) with
    | Some txn ->
      request t ~txn ~kind:Msg.ReqWTdata ~line ~mask:(Mask.singleton word)
        ~amo ()
    | None ->
      Stats.incr t.ch.Chassis.stats "mshr_stall";
      Engine.schedule t.ch.Chassis.engine ~delay:4 (fun () -> rmw t addr amo ~k)
  end
  else
    match Cache_frame.find_exn t.frame ~line with
    | l when Mask.mem l.owned word ->
      Stats.incr t.ch.Chassis.stats "rmw_hit_owned";
      let next, old = Amo.apply amo l.data.(word) in
      l.data.(word) <- next;
      Engine.apply_later t.ch.Chassis.engine ~delay:t.cfg.hit_latency k old
    | _ | (exception Not_found) ->
      if
        find_rmw_covering t ~line ~word <> None
        || find_own_covering t ~line ~word <> None
        || find_wb_covering t ~line ~word <> None
      then begin
        (* Another context's write to this word is mid-grant, or the word is
           mid-write-back (the LLC would answer a ReqO+data with a data-less
           self-grant); wait and re-enter. *)
        Stats.incr t.ch.Chassis.stats "rmw_serialized";
        Engine.schedule t.ch.Chassis.engine ~delay:3 (fun () ->
            rmw t addr amo ~k)
      end
      else begin
        Stats.incr t.ch.Chassis.stats "rmw_miss";
        let r =
          {
            w_line = line;
            w_word = word;
            w_amo = amo;
            w_collector = Tu.create ~demand:(Mask.singleton word);
            w_stolen = false;
            w_queued = [];
            w_k = k;
          }
        in
        match Mshr.alloc t.ch.Chassis.outstanding (Rmw r) with
        | Some txn ->
          request t ~txn ~kind:Msg.ReqOdata ~line ~mask:(Mask.singleton word)
            ()
        | None ->
          Stats.incr t.ch.Chassis.stats "mshr_stall";
          Engine.schedule t.ch.Chassis.engine ~delay:4 (fun () ->
              rmw t addr amo ~k)
      end

(* ----- external requests (the device-side of Table IV) ---------------------- *)

and external_req t (msg : Msg.t) =
  let { Msg.line; mask; _ } = msg in
  (* Partition the requested words by where their truth currently lives.
     One pass over the MSHR file collects, for [line], the words of
     pending write-side stores (not write-throughs, minus stolen words),
     of unstolen RMWs, and of converted or promoted reads (ReqO+data)
     mid-grant: the LLC already lists this cache as their owner, but the
     data is still on the wire. *)
  let own = ref Mask.empty and rmw = ref Mask.empty and read = ref Mask.empty in
  if Mshr.count t.ch.Chassis.outstanding > 0 then
    Mshr.iter t.ch.Chassis.outstanding ~f:(fun ~txn:_ -> function
      | Own o when o.o_line = line && not o.o_through ->
        own := Mask.union !own (Mask.diff o.o_mask o.o_stolen)
      | Rmw r when r.w_line = line && not r.w_stolen ->
        rmw := Mask.add !rmw r.w_word
      | Read m when m.r_line = line -> read := Mask.union !read m.r_own_mask
      | Own _ | Rmw _ | Read _ | Atomic _ -> ());
  (* One pass over the write-backs: the words they cover on [line], and
     the last record (in table order) holding a requested word, whose
     retained data answers them. *)
  let wb = ref Mask.empty and wb_rec = ref None in
  if Hashtbl.length t.wb_records > 0 then
    Hashtbl.iter
      (fun _ (b : wb_req) ->
        if b.b_line = line then begin
          wb := Mask.union !wb b.b_mask;
          if not (Mask.is_empty (Mask.inter b.b_mask mask)) then
            wb_rec := Some b
        end)
      t.wb_records;
  (* The write-back record is consulted first: forwards arriving while it
     is alive were serialized before the write-back at the LLC and target
     the old ownership epoch (cf. Mesi_l1.external_req). *)
  let frame_line = Cache_frame.find t.frame ~line in
  let in_wb = Mask.inter mask !wb in
  let rest = Mask.diff mask in_wb in
  let owned_here =
    match frame_line with
    | Some l -> Mask.inter rest l.owned
    | None -> Mask.empty
  in
  let rest = Mask.diff rest owned_here in
  let in_own = Mask.inter rest !own in
  let rest = Mask.diff rest in_own in
  let in_rmw = Mask.inter rest !rmw in
  let rest = Mask.diff rest in_rmw in
  let in_read = Mask.inter rest !read in
  let absent = Mask.diff rest in_read in
  let kind_needs_data = Msg.kind_needs_data msg.Msg.kind in
  (* Words mid-RMW: data-needing requests wait for the fill; data-less
     downgrades steal immediately. *)
  if not (Mask.is_empty in_rmw) then begin
    if kind_needs_data then begin
      Stats.incr t.ch.Chassis.stats "ext_delayed";
      Mask.iter in_rmw ~f:(fun w ->
          match find_rmw_covering t ~line ~word:w with
          | Some r ->
            (* The narrowed copy aliases [msg]'s payload; pin the original
               so recycling cannot hand its array to another message. *)
            Msg.keep msg;
            r.w_queued <-
              r.w_queued @ [ { msg with Msg.mask = Mask.singleton w } ]
          | None -> assert false)
    end
    else
      Mask.iter in_rmw ~f:(fun w ->
          match find_rmw_covering t ~line ~word:w with
          | Some r ->
            r.w_stolen <- true;
            reply t msg ~kind:Msg.RspO ~dst:msg.Msg.requestor
              ~mask:(Mask.singleton w) ()
          | None -> assert false)
  end;
  (* Owned in the frame: the normal case. *)
  (match frame_line with
  | Some l when not (Mask.is_empty owned_here) ->
    serve t msg ~words:owned_here ~values:l.data ~downgrade:(fun words ->
        t.policy.Policy.on_downgrade ~line;
        l.owned <- Mask.diff l.owned words)
  | _ -> ());
  (* Granted-but-uncommitted stores: answer from the pending values. *)
  Mask.iter in_own ~f:(fun w ->
      match find_own_covering ~include_through:false t ~line ~word:w with
      | Some o ->
        serve t msg ~words:(Mask.singleton w) ~values:o.o_values
          ~downgrade:(fun words -> o.o_stolen <- Mask.union o.o_stolen words)
      | None -> assert false);
  (* Pending write-back: respond with the retained data; the LLC treats the
     in-flight ReqWB as the data carrier (§III-C case 2). *)
  (match !wb_rec with
  | _ when Mask.is_empty in_wb -> ()
  | Some b -> (
    match msg.Msg.kind with
    | Msg.Req Msg.ReqV ->
      respond_words t msg ~kind:Msg.RspV ~dst:msg.Msg.requestor ~words:in_wb
        ~values:b.b_values
    | Msg.Req Msg.ReqO ->
      reply t msg ~kind:Msg.RspO ~dst:msg.Msg.requestor ~mask:in_wb ()
    | Msg.Req Msg.ReqOdata ->
      respond_words t msg ~kind:Msg.RspOdata ~dst:msg.Msg.requestor
        ~words:in_wb ~values:b.b_values
    | Msg.Req Msg.ReqS ->
      respond_words t msg ~kind:Msg.RspS ~dst:msg.Msg.requestor ~words:in_wb
        ~values:b.b_values;
      (* Data already travels in the pending ReqWB (footnote 5). *)
      reply t msg ~kind:Msg.RspRvkO ~dst:msg.Msg.src ~mask:in_wb ()
    | Msg.Probe Msg.RvkO ->
      reply t msg ~kind:Msg.RspRvkO ~dst:msg.Msg.src ~mask:in_wb ()
    | _ -> assert false)
  | None -> assert false);
  (* Words mid-grant to a converted or promoted read: the fill is in
     flight from the LLC (the response cannot be Nacked), so re-dispatch
     once it lands and the words are Owned in the frame. *)
  if not (Mask.is_empty in_read) then begin
    Stats.incr t.ch.Chassis.stats "ext_deferred_read";
    (* Snapshot now: by the time the closure fires the original may have
       been recycled and reused for an unrelated message.  The copy still
       aliases the payload, so pin both records. *)
    let deferred =
      {
        msg with
        Msg.mask = in_read;
        Msg.demand = Mask.inter msg.Msg.demand in_read;
      }
    in
    Msg.keep msg;
    Msg.keep deferred;
    Engine.schedule t.ch.Chassis.engine ~delay:3 (fun () ->
        external_req t deferred)
  end;
  (* Words we hold in no form. *)
  if not (Mask.is_empty absent) then begin
    match msg.Msg.kind with
    | Msg.Req Msg.ReqV ->
      (* Ownership moved on before the forwarded ReqV arrived: Nack the
         demanded words so the requestor's TU can retry (§III-C case 3);
         opportunistic words are silently dropped. *)
      let demanded = Mask.inter absent msg.Msg.demand in
      if not (Mask.is_empty demanded) then begin
        Stats.incr t.ch.Chassis.stats "nack_sent";
        reply t msg ~kind:Msg.Nack ~dst:msg.Msg.requestor ~mask:demanded ()
      end
    | Msg.Req Msg.ReqO ->
      reply t msg ~kind:Msg.RspO ~dst:msg.Msg.requestor ~mask:absent ()
    | _ ->
      failwith
        (Format.asprintf "Denovo_l1 %d: data-needing external for absent words %a"
           t.cfg.id Msg.pp msg)
  end

(* ----- synchronization ------------------------------------------------------ *)

(* Flash self-invalidation of Valid words, optionally restricted to one
   software region (paper II-C: "selectively invalidating only potentially
   stale data based on information from software").  Owned words always
   survive. *)
let acquire_matching t ~matches ~k =
  Stats.incr t.ch.Chassis.stats "acquire_flash";
  let empties =
    Cache_frame.fold t.frame ~init:[] ~f:(fun acc ~line l ->
        if matches line then begin
          l.valid <- Mask.empty;
          if Mask.is_empty l.owned then line :: acc else acc
        end
        else acc)
  in
  List.iter (fun line -> Cache_frame.remove t.frame ~line) empties;
  t.epoch <- t.epoch + 1;
  Engine.schedule t.ch.Chassis.engine ~delay:1 k

let acquire t ~k = acquire_matching t ~matches:(fun _ -> true) ~k

let acquire_region t ~region ~k =
  Stats.incr t.ch.Chassis.stats "acquire_region";
  acquire_matching t ~matches:(fun line -> t.cfg.region_of line = region) ~k

let release t ~k = Chassis.release t.ch ~k

(* ----- responses ------------------------------------------------------------ *)

let handle t (msg : Msg.t) =
  match msg.Msg.kind with
  | Msg.Req _ -> external_req t msg
  | Msg.Probe Msg.RvkO -> external_req t msg
  | Msg.Probe Msg.Inv ->
    (* No Shared state: silently acknowledge (§III-C case 3). *)
    send t
      (Msg.make ~txn:msg.Msg.txn ~kind:(Msg.Rsp Msg.Ack) ~line:msg.Msg.line
         ~mask:msg.Msg.mask ~src:t.cfg.id ~dst:msg.Msg.src ())
  | Msg.Rsp _ when Hashtbl.mem t.wb_records msg.Msg.txn ->
    (match msg.Msg.kind with
    | Msg.Rsp Msg.RspWB -> ()
    | _ -> failwith "Denovo_l1: unexpected write-back response");
    Hashtbl.remove t.wb_records msg.Msg.txn;
    Chassis.retire t.ch ~txn:msg.Msg.txn;
    drain t
  | Msg.Rsp _ -> (
    match Mshr.find_exn t.ch.Chassis.outstanding ~txn:msg.Msg.txn with
    | exception Not_found -> Stats.incr t.ch.Chassis.stats "orphan_rsp"
    | Read m -> (
      match Tu.absorb m.r_collector msg with
      | None -> ()
      | Some r ->
        if Mask.is_empty r.Tu.nacked then complete_read t ~txn:msg.Msg.txn m r
        else handle_read_nacks t ~txn:msg.Msg.txn m r)
    | Own o -> (
      match Tu.absorb o.o_collector msg with
      | None -> ()
      | Some _ ->
        free_txn t ~txn:msg.Msg.txn;
        commit_own t o;
        Chassis.check_release t.ch;
        drain t)
    | Rmw r -> (
      match Tu.absorb r.w_collector msg with
      | None -> ()
      | Some res ->
        assert (Mask.is_empty res.Tu.nacked);
        if Mask.mem res.Tu.data_mask r.w_word then
          finish_rmw t ~txn:msg.Msg.txn r ~value:res.Tu.values.(r.w_word)
        else begin
          (* Granted without data: the LLC believed we already owned the
             word. If we do, apply locally; if a racing local transaction
             holds the truth, retry from the top. *)
          match Cache_frame.find_exn t.frame ~line:r.w_line with
          | l when Mask.mem (Mask.union l.valid l.owned) r.w_word ->
            finish_rmw t ~txn:msg.Msg.txn r ~value:l.data.(r.w_word)
          | _ | (exception Not_found) ->
            Stats.incr t.ch.Chassis.stats "rmw_regranted";
            if r.w_queued <> [] then
              failwith "Denovo_l1: data-less RMW grant with queued externals";
            free_txn t ~txn:msg.Msg.txn;
            Engine.schedule t.ch.Chassis.engine ~delay:2 (fun () ->
                rmw t { Addr.line = r.w_line; word = r.w_word } r.w_amo
                  ~k:r.w_k)
        end)
    | Atomic a -> (
      match (msg.Msg.kind, msg.Msg.payload) with
      | Msg.Rsp Msg.RspWTdata, (Msg.Data values | Msg.Data_pooled values) ->
        free_txn t ~txn:msg.Msg.txn;
        a.at_k values.(0);
        Chassis.check_release t.ch;
        drain t
      | _ -> failwith "Denovo_l1: unexpected atomic response")
  )

(* ----- construction --------------------------------------------------------- *)

let quiescent t = Chassis.quiescent t.ch && Hashtbl.length t.wb_records = 0

let register_metrics t ~device reg =
  Chassis.register_metrics t.ch ~device reg

let create ?name engine net cfg =
  let name =
    Option.value name ~default:(Printf.sprintf "denovo_l1.%d" cfg.id)
  in
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
      policy =
        Spandex_policy.make cfg.policy
          ~now:(fun () -> Engine.now engine)
          ~coalesce_window:cfg.coalesce_window;
      k_store_hit_owned = Stats.key ch.Chassis.stats "store_hit_owned";
      k_wt_chosen = Stats.key ch.Chassis.stats "wt_chosen";
      k_reqo_issued = Stats.key ch.Chassis.stats "reqo_issued";
      k_reqo_words = Stats.key ch.Chassis.stats "reqo_words";
      k_wb_issued = Stats.key ch.Chassis.stats "wb_issued";
      epoch = 0;
    }
  in
  ch.Chassis.drain <- (fun () -> drain t);
  ch.Chassis.writes_pending <- (fun () -> writes_pending t);
  ch.Chassis.source_line <-
    (function
    | Read m -> m.r_line
    | Own o -> o.o_line
    | Rmw r -> r.w_line
    | Atomic _ -> -1);
  ch.Chassis.source_what <-
    (function
    | Read _ -> "Read miss"
    | Own _ -> "Own request"
    | Rmw _ -> "Rmw request"
    | Atomic _ -> "Atomic at LLC");
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
    acquire_region = (fun ~region ~k -> acquire_region t ~region ~k);
    release = (fun ~k -> release t ~k);
    quiescent = (fun () -> quiescent t);
  }

let stats t = t.ch.Chassis.stats

let word_state t (addr : Addr.t) =
  match Cache_frame.find t.frame ~line:addr.Addr.line with
  | None -> State.I
  | Some l ->
    if Mask.mem l.owned addr.Addr.word then State.O
    else if Mask.mem l.valid addr.Addr.word then State.V
    else State.I

let peek_word t (addr : Addr.t) =
  match Cache_frame.find t.frame ~line:addr.Addr.line with
  | Some l when Mask.mem (Mask.union l.valid l.owned) addr.Addr.word ->
    Some l.data.(addr.Addr.word)
  | _ -> None

let count_words t f =
  Cache_frame.fold t.frame ~init:0 ~f:(fun acc ~line:_ l ->
      acc + Mask.count (f l))

let owned_words t = count_words t (fun l -> l.owned)
let valid_words t = count_words t (fun l -> l.valid)

(* ----- model-checker introspection ----------------------------------------- *)

module Fp = Spandex_util.Fingerprint

let fp_collector fp c =
  let r = Tu.peek c in
  Fp.int fp (r.Tu.data_mask :> int);
  Fp.int fp (r.Tu.acked :> int);
  Fp.int fp (r.Tu.nacked :> int);
  Fp.masked_array fp ~mask:r.Tu.data_mask r.Tu.values

let fp_waiters fp ws = Fp.list fp Fp.int (List.sort compare (List.map fst ws))

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
  Fp.tag fp "denovo";
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
      Fp.int fp (l.valid :> int);
      Fp.int fp (l.owned :> int);
      Fp.masked_array fp ~mask:(Mask.union l.valid l.owned) l.data)
    lines;
  Chassis.fingerprint t.ch fp
    ~key:(function
      | Read m -> (m.r_line * 8) + 0
      | Own o -> (o.o_line * 8) + 1
      | Rmw r -> (r.w_line * 8) + 2
      | Atomic _ -> 3)
    ~payload:(fun fp -> function
      | Read m ->
        Fp.tag fp "R";
        Fp.int fp m.r_line;
        Fp.int fp (m.r_own_mask :> int);
        Fp.int fp m.r_retries;
        Fp.int fp (t.epoch - m.r_epoch);
        fp_waiters fp m.r_waiters;
        fp_collector fp m.r_collector
      | Own o ->
        Fp.tag fp "O";
        Fp.int fp o.o_line;
        Fp.int fp (o.o_mask :> int);
        Fp.masked_array fp ~mask:o.o_mask o.o_values;
        Fp.int fp (o.o_stolen :> int);
        Fp.bool fp o.o_through;
        fp_collector fp o.o_collector
      | Rmw r ->
        Fp.tag fp "W";
        Fp.int fp r.w_line;
        Fp.int fp r.w_word;
        fp_amo fp r.w_amo;
        Fp.bool fp r.w_stolen;
        Fp.list fp Msg.fingerprint r.w_queued;
        fp_collector fp r.w_collector
      | Atomic _ -> Fp.tag fp "A");
  let wbs =
    Hashtbl.fold (fun txn b acc -> (txn, b) :: acc) t.wb_records []
    |> List.sort (fun (t1, b1) (t2, b2) ->
           match
             compare (b1.b_line, (b1.b_mask :> int))
               (b2.b_line, (b2.b_mask :> int))
           with
           | 0 -> compare t1 t2
           | c -> c)
  in
  Fp.int fp (List.length wbs);
  List.iter
    (fun (txn, (b : wb_req)) ->
      Fp.txn fp txn;
      Fp.int fp b.b_line;
      Fp.int fp (b.b_mask :> int);
      Fp.masked_array fp ~mask:b.b_mask b.b_values)
    wbs

let owned_mask t ~line =
  match Cache_frame.find t.frame ~line with
  | Some l -> l.owned
  | None -> Mask.empty
