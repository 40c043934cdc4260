module Mask = Spandex_util.Mask
module Stats = Spandex_util.Stats
module Retry = Spandex_util.Retry
module Engine = Spandex_sim.Engine
module Trace = Spandex_sim.Trace
module Msg = Spandex_proto.Msg
module Txn = Spandex_proto.Txn
module Linedata = Spandex_proto.Linedata
module Network = Spandex_net.Network
module Fault = Spandex_net.Fault
module Mshr = Spandex_mem.Mshr
module Store_buffer = Spandex_mem.Store_buffer

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
  name : string;
  mutable flushing : bool;
  mutable drain_armed : bool;
  mutable release_waiters : (unit -> unit) list;
  mutable stalled_stores : (unit -> unit) list;
  mutable drain : unit -> unit;
  mutable writes_pending : unit -> int;
  mutable drain_tick : unit -> unit;
  mutable source_line : 'o -> int;
  mutable source_what : 'o -> string;
}

let create engine net ~id ~home_id ~home_banks ~hit_latency ~coalesce_window
    ~mshrs ~sb_capacity ~level ~device =
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
      name = Printf.sprintf "%s.%d" level id;
      flushing = false;
      drain_armed = false;
      release_waiters = [];
      stalled_stores = [];
      drain = (fun () -> ());
      writes_pending = (fun () -> 0);
      drain_tick = (fun () -> ());
      source_line = (fun _ -> -1);
      source_what = (fun _ -> "mshr");
    }
  in
  t.drain_tick <-
    (fun () ->
      t.drain_armed <- false;
      t.drain ());
  (* Everything [quiescent] checks, reported under the device's [Run]
     name. *)
  Engine.register_pending_source engine (fun () ->
      let acc = ref [] in
      Mshr.iter t.outstanding ~f:(fun ~txn o ->
          acc :=
            {
              Engine.pw_device = device;
              pw_txn = txn;
              pw_line = t.source_line o;
              pw_what = t.source_what o;
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
      List.rev !acc);
  t

let fresh_txn t = Txn.next t.txns
let send t msg = Engine.send_later t.engine ~delay:t.hit_latency msg

let request t ~txn ~kind ~line ~mask ?demand ?payload ?amo () =
  let msg =
    Msg.make ~txn ~kind:(Msg.Req kind) ~line ~mask ?demand ?payload ~src:t.id
      ~dst:(t.home_id + (line mod t.home_banks)) ?amo ()
  in
  if Trace.on t.trace then
    Trace.span_begin t.trace ~time:(Engine.now t.engine) ~dev:t.id ~txn
      ~cls:(Msg.req_kind_index kind) ~line;
  Option.iter
    (fun r ->
      let resend =
        if Trace.on t.trace then (fun () ->
            Trace.instant t.trace ~time:(Engine.now t.engine) ~dev:t.id
              ~name:t.n_retry ~txn ~arg:(Msg.req_kind_index kind);
            Network.send t.net msg)
        else fun () -> Network.send t.net msg
      in
      Retry.arm r ~txn
        ~describe:(Format.asprintf "%a line %d" Msg.pp_kind (Msg.Req kind) line)
        ~resend)
    t.retry;
  send t msg

let retire t ~txn =
  Option.iter (fun r -> Retry.complete r ~txn) t.retry;
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
      (Msg.make ~txn:msg.Msg.txn ~kind:(Msg.Rsp kind) ~line:msg.Msg.line ~mask
         ?payload ~src:t.id ~dst ())

let reply_data t msg ~kind ~dst ~mask ~values =
  if not (Mask.is_empty mask) then
    reply t msg ~kind ~dst ~mask
      ~payload:(Msg.pooled_pack ~mask ~full:values)
      ()

let entry_ready ?(forced = false) t line =
  if t.flushing || forced || Store_buffer.count t.sb * 2 >= t.sb_capacity then
    true
  else
    let age = Engine.now t.engine - Store_buffer.age t.sb ~line in
    age >= t.coalesce_window

let check_release t =
  if t.flushing && Store_buffer.is_empty t.sb && t.writes_pending () = 0
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
   retry/stall counters.  [device] labels the series — the same display
   name trace tracks use; the two gauges also feed the "<level>.<id>.mshr"
   and "<level>.<id>.sb" (or aux) trace counter tracks. *)
let register_metrics t ~device ?aux reg =
  let module Metrics = Spandex_obs.Metrics in
  let labels = [ ("device", device) ] in
  let track what = (t.id, t.name ^ "." ^ what) in
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

let quiescent t =
  Store_buffer.is_empty t.sb
  && Mshr.count t.outstanding = 0
  && t.stalled_stores = []

module Fp = Spandex_util.Fingerprint

(* Canonical encoding of the shared transaction state.  MSHR entries are
   sorted by the protocol's [key] (line + kind, unique for coexisting
   entries) with the raw txn as a tiebreaker, so the fingerprint's txn
   remap is assigned in a content-determined order; store-buffer entries
   sort by line (one entry per line by construction). *)
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
    ms
