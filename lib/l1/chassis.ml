module Mask = Spandex_util.Mask
module Stats = Spandex_util.Stats
module Retry = Spandex_util.Retry
module Engine = Spandex_sim.Engine
module Trace = Spandex_sim.Trace
module Msg = Spandex_proto.Msg
module Txn = Spandex_proto.Txn
module Addr = Spandex_proto.Addr
module Linedata = Spandex_proto.Linedata
module Network = Spandex_net.Network
module Fault = Spandex_net.Fault
module Mshr = Spandex_mem.Mshr
module Store_buffer = Spandex_mem.Store_buffer

type wb = { line : int; mask : Mask.t; values : int array }

type 'o t = {
  engine : Engine.t;
  net : Network.t;
  id : Msg.device_id;
  home_id : Msg.device_id;
  home_banks : int;
  hit_latency : int;
  coalesce_window : int;
  sb_capacity : int;
  txns : Txn.allocator;  (* per-device ids: interleave-independent. *)
  outstanding : 'o Mshr.t;
  sb : Store_buffer.t;
  stats : Stats.t;
  k_load_hit : Stats.key;
  k_load_miss : Stats.key;
  k_load_sb_fwd : Stats.key;
  k_stores : Stats.key;
  retry : Retry.t option;
  trace : Trace.t;
  n_retry : int;
  n_nack : int;
  n_chain : int;
  describe : 'o -> int * string;
  is_write : int -> int -> 'o -> bool;
      (* the protocol's predicate in {!Mshr.exists}'s keyed form, built
         once so the release check allocates nothing. *)
  wbs : (int, wb) Hashtbl.t;
  k_wb_issued : Stats.key;
  mutable flushing : bool;
  mutable drain_armed : bool;
  mutable release_waiters : (unit -> unit) list;
  mutable stalled_stores : (unit -> unit) list;
  mutable drain : unit -> unit;
  mutable drain_tick : unit -> unit;
}

let create engine net ~id ~home_id ~home_banks ~hit_latency ~coalesce_window
    ~mshrs ~sb_capacity ~device ~describe ~is_write =
  let stats = Stats.create () in
  let trace = Engine.trace engine in
  let retry =
    Option.map
      (fun f ->
        Retry.create (Fault.retry_config f) ~seed:(0x5EED + id)
          ~schedule:(fun ~delay k -> Engine.schedule engine ~delay k)
          ~stats)
      (Network.fault net)
  in
  let txns = Txn.allocator ~id in
  let t =
    {
      engine;
      net;
      id;
      home_id;
      home_banks;
      hit_latency;
      coalesce_window;
      sb_capacity;
      txns;
      outstanding =
        Mshr.create ~fresh_txn:(fun () -> Txn.next txns) ~capacity:mshrs ();
      sb = Store_buffer.create ~capacity:sb_capacity;
      stats;
      k_load_hit = Stats.key stats "load_hit";
      k_load_miss = Stats.key stats "load_miss";
      k_load_sb_fwd = Stats.key stats "load_sb_fwd";
      k_stores = Stats.key stats "stores";
      retry;
      trace;
      n_retry = Trace.name trace "retry.resend";
      n_nack = Trace.name trace "tu.nack";
      n_chain = Trace.name trace "txn.chain";
      describe;
      is_write = (fun _ _ o -> is_write o);
      wbs = Hashtbl.create 16;
      k_wb_issued = Stats.key stats "wb_issued";
      flushing = false;
      drain_armed = false;
      release_waiters = [];
      stalled_stores = [];
      drain = (fun () -> ());
      drain_tick = (fun () -> ());
    }
  in
  t.drain_tick <-
    (fun () ->
      t.drain_armed <- false;
      t.drain ());
  (* MSHR entries, buffered and stalled stores, then write-backs, reported
     under the device's [Run] name. *)
  Engine.register_pending_source engine (fun () ->
      let acc = ref [] in
      Mshr.iter t.outstanding ~f:(fun ~txn o ->
          let line, what = describe o in
          acc :=
            {
              Engine.pw_device = device;
              pw_txn = txn;
              pw_line = line;
              pw_what = what;
            }
            :: !acc);
      Store_buffer.iter t.sb ~f:(fun e ->
          acc :=
            {
              Engine.pw_device = device;
              pw_txn = -1;
              pw_line = e.Store_buffer.line;
              pw_what = "buffered store";
            }
            :: !acc);
      if t.stalled_stores <> [] then
        acc :=
          {
            Engine.pw_device = device;
            pw_txn = -1;
            pw_line = -1;
            pw_what =
              Printf.sprintf "%d stalled store(s)"
                (List.length t.stalled_stores);
          }
          :: !acc;
      List.rev_append !acc
        (Hashtbl.fold
           (fun txn b acc ->
             {
               Engine.pw_device = device;
               pw_txn = txn;
               pw_line = b.line;
               pw_what = "write-back awaiting RspWB";
             }
             :: acc)
           t.wbs []));
  t

let send t msg = Engine.send_later t.engine ~delay:t.hit_latency msg

(* Fault-armed runs only: resend [msg] until [retire]. *)
let arm_retry t r (msg : Msg.t) =
  let txn = msg.Msg.txn in
  let resend =
    if Trace.on t.trace then (fun () ->
        Trace.instant t.trace ~time:(Engine.now t.engine) ~dev:t.id
          ~name:t.n_retry ~txn ~arg:(Msg.kind_index msg.Msg.kind);
        Network.send t.net msg)
    else fun () -> Network.send t.net msg
  in
  Retry.arm r ~txn
    ~describe:
      (Format.asprintf "%a line %d" Msg.pp_kind msg.Msg.kind msg.Msg.line)
    ~resend

let request t ~txn ~kind ~line ~mask ?demand ?payload ?amo () =
  let msg =
    Msg.make ~txn ~kind:(Msg.req kind) ~line ~mask ?demand ?payload ~src:t.id
      ~dst:(t.home_id + Addr.bank_of ~banks:t.home_banks line) ?amo ()
  in
  if Trace.on t.trace then
    Trace.span_begin t.trace ~time:(Engine.now t.engine) ~dev:t.id ~txn
      ~cls:(Msg.req_kind_index kind) ~line;
  (match t.retry with Some r -> arm_retry t r msg | None -> ());
  send t msg

let retire t ~txn =
  (match t.retry with Some r -> Retry.complete r ~txn | None -> ());
  if Trace.on t.trace then
    Trace.span_end t.trace ~time:(Engine.now t.engine) ~dev:t.id ~txn

let free_txn t ~txn =
  Mshr.free t.outstanding ~txn;
  retire t ~txn

let trace_chain t ~txn ~txn' =
  if Trace.on t.trace then
    Trace.instant t.trace ~time:(Engine.now t.engine) ~dev:t.id ~name:t.n_chain
      ~txn ~arg:txn'

let trace_nack t ~txn ~count =
  if Trace.on t.trace then
    Trace.instant t.trace ~time:(Engine.now t.engine) ~dev:t.id ~name:t.n_nack
      ~txn ~arg:count

let reply t (msg : Msg.t) ~kind ~dst ~mask ?payload () =
  if not (Mask.is_empty mask) then
    send t
      (Msg.make ~txn:msg.Msg.txn ~kind:(Msg.rsp kind) ~line:msg.Msg.line ~mask
         ?payload ~src:t.id ~dst ())

let reply_data t msg ~kind ~dst ~mask ~values =
  if not (Mask.is_empty mask) then
    reply t msg ~kind ~dst ~mask
      ~payload:(Msg.Data (Linedata.pack ~mask ~full:values))
      ()

(* ----- write-backs ----------------------------------------------------- *)

let write_back t ~line ~mask ~values =
  let txn = Txn.next t.txns in
  Hashtbl.replace t.wbs txn { line; mask; values };
  Stats.bump t.stats t.k_wb_issued;
  request t ~txn ~kind:Msg.ReqWB ~line ~mask
    ~payload:(Msg.Data (Linedata.pack ~mask ~full:values))
    ()

let is_wb t ~txn = Hashtbl.mem t.wbs txn

let finish_wb t (msg : Msg.t) =
  (match msg.Msg.kind with
  | Msg.Rsp Msg.RspWB -> ()
  | _ ->
    failwith
      (Format.asprintf "Chassis %d: unexpected write-back response %a" t.id
         Msg.pp msg));
  Hashtbl.remove t.wbs msg.Msg.txn;
  retire t ~txn:msg.Msg.txn;
  t.drain ()

let find_wb t ~line ~mask =
  if Hashtbl.length t.wbs = 0 then None
  else
    Hashtbl.fold
      (fun _ b acc ->
        if b.line = line && not (Mask.is_empty (Mask.inter b.mask mask)) then
          Some b
        else acc)
      t.wbs None

let wb_words t ~line =
  if Hashtbl.length t.wbs = 0 then Mask.empty
  else
    Hashtbl.fold
      (fun _ b acc -> if b.line = line then Mask.union acc b.mask else acc)
      t.wbs Mask.empty

let entry_ready ?(forced = false) t line =
  if t.flushing || forced || Store_buffer.count t.sb * 2 >= t.sb_capacity then
    true
  else
    let age = Engine.now t.engine - Store_buffer.age t.sb ~line in
    age >= t.coalesce_window

let check_release t =
  if
    t.flushing && Store_buffer.is_empty t.sb
    && not (Mshr.exists t.outstanding 0 0 ~f:t.is_write)
  then begin
    t.flushing <- false;
    let ws = t.release_waiters in
    t.release_waiters <- [];
    List.iter (fun k -> k ()) ws
  end

let arm_drain t ~delay =
  if not t.drain_armed then begin
    t.drain_armed <- true;
    Engine.schedule t.engine ~delay t.drain_tick
  end

let release t ~k =
  Stats.incr t.stats "release";
  t.flushing <- true;
  t.release_waiters <- k :: t.release_waiters;
  arm_drain t ~delay:0;
  (* Already drained? *)
  Engine.schedule t.engine ~delay:1 (fun () -> check_release t)

let wake_stalled t =
  let stalled = t.stalled_stores in
  t.stalled_stores <- [];
  List.iter (fun retry -> retry ()) stalled

let stall_store t retry =
  Stats.incr t.stats "sb_full_stall";
  t.stalled_stores <- retry :: t.stalled_stores;
  arm_drain t ~delay:1

(* Metrics probes shared by every protocol built on the chassis: MSHR and
   store-buffer (or protocol-specific [aux]) occupancy gauges plus the
   retry/stall counters.  [label] labels the series; the two gauges also
   feed the "<name>.mshr" and "<name>.sb" (or aux) trace counter tracks. *)
let register_metrics t ?aux ~label ~name reg =
  let module Metrics = Spandex_obs.Metrics in
  let labels = [ ("device", label) ] in
  let track what = (t.id, name ^ "." ^ what) in
  Metrics.gauge reg ~name:"spandex_l1_mshr_occupancy" ~labels
    ~track:(track "mshr") ~help:"MSHR entries in use" (fun () ->
      Mshr.count t.outstanding);
  (match aux with
  | None ->
    Metrics.gauge reg ~name:"spandex_l1_store_buffer_occupancy" ~labels
      ~track:(track "sb") ~help:"store-buffer entries in use" (fun () ->
        Store_buffer.count t.sb)
  | Some (name, what, probe) ->
    Metrics.gauge reg ~name ~labels ~track:(track what)
      ~help:"protocol-specific occupancy" probe);
  Metrics.counter reg ~name:"spandex_l1_sb_full_stalls_total" ~labels
    ~help:"stores stalled on a full store buffer" (fun () ->
      Stats.get t.stats "sb_full_stall");
  Metrics.counter reg ~name:"spandex_l1_retries_total" ~labels
    ~help:"timeout-driven request resends (fault runs)" (fun () ->
      Stats.get t.stats "retry.resend")

let part t ?aux ~fingerprint l1 =
  {
    Spandex_device.Part.stats = t.stats;
    register_metrics = register_metrics t ?aux;
    fingerprint;
    l1;
  }

module Fp = Spandex_util.Fingerprint

(* Canonical encoding of the shared transaction state.  MSHR entries are
   sorted by the protocol's [key] (line + kind, unique for coexisting
   entries) and write-backs by line and mask, each with the raw txn as a
   tiebreaker, so the fingerprint's txn remap is assigned in a
   content-determined order; store-buffer entries sort by line (one entry
   per line by construction). *)
let fingerprint t fp ~key ~payload =
  Fp.tag fp "ch";
  Fp.bool fp t.flushing;
  Fp.int fp (List.length t.release_waiters);
  Fp.int fp (List.length t.stalled_stores);
  let sbs = ref [] in
  Store_buffer.iter t.sb ~f:(fun e -> sbs := e :: !sbs);
  let sbs =
    List.sort
      (fun a b -> compare a.Store_buffer.line b.Store_buffer.line)
      !sbs
  in
  Fp.int fp (List.length sbs);
  List.iter
    (fun e ->
      Fp.int fp e.Store_buffer.line;
      Fp.int fp (e.Store_buffer.mask :> int);
      Fp.masked_array fp ~mask:e.Store_buffer.mask e.Store_buffer.values)
    sbs;
  let ms = ref [] in
  Mshr.iter t.outstanding ~f:(fun ~txn o -> ms := (txn, o) :: !ms);
  let ms =
    List.sort
      (fun (t1, o1) (t2, o2) ->
        match compare (key o1) (key o2) with 0 -> compare t1 t2 | c -> c)
      !ms
  in
  Fp.int fp (List.length ms);
  List.iter
    (fun (txn, o) ->
      Fp.txn fp txn;
      payload fp o)
    ms;
  let wbs =
    Hashtbl.fold (fun txn b acc -> (txn, b) :: acc) t.wbs []
    |> List.sort (fun (t1, b1) (t2, b2) ->
           match
             compare (b1.line, (b1.mask :> int)) (b2.line, (b2.mask :> int))
           with
           | 0 -> compare t1 t2
           | c -> c)
  in
  Fp.int fp (List.length wbs);
  List.iter
    (fun (txn, b) ->
      Fp.txn fp txn;
      Fp.int fp b.line;
      Fp.int fp (b.mask :> int);
      Fp.masked_array fp ~mask:b.mask b.values)
    wbs

let fingerprint_waiters fp ws =
  Fp.list fp Fp.int (List.sort compare (List.map fst ws))
