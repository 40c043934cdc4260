module Msg = Spandex_proto.Msg
module Engine = Spandex_sim.Engine
module Stats = Spandex_util.Stats

type topology = {
  latency : src:int -> dst:int -> int;
  hops : src:int -> dst:int -> int;
  min_latency : int;
}

let flat_topology ~latency =
  {
    latency = (fun ~src:_ ~dst:_ -> latency);
    hops = (fun ~src:_ ~dst:_ -> 1);
    min_latency = latency;
  }

(* Both the latency and the hop count of a link derive from the same
   classification (same group or not): a cross-group message crosses as
   many links as its latency is multiples of the local link latency, so a
   topology with cross_latency = 3 * local_latency accounts 3 flit-hops
   per flit, not a hardcoded 2. *)
let grouped_topology ~group_of ~local_latency ~cross_latency =
  let link ~src ~dst = group_of src = group_of dst in
  let cross_hops =
    max 1 ((cross_latency + (local_latency / 2)) / max 1 local_latency)
  in
  {
    latency =
      (fun ~src ~dst -> if link ~src ~dst then local_latency else cross_latency);
    hops = (fun ~src ~dst -> if link ~src ~dst then 1 else cross_hops);
    min_latency = min local_latency cross_latency;
  }

module Trace = Spandex_sim.Trace

type t = {
  topo : topology;
  engine : Engine.t;
  traffic : int array;  (** flit-hops per category. *)
  stats : Stats.t;
  kind_keys : Stats.key array;  (** per-kind counters, by [Msg.kind_index]. *)
  in_flight : int ref;  (** shared by every endpoint; see [register]. *)
  mutable messages : int;
  trace : Trace.t;  (** the engine's sink; [Trace.disabled] when off. *)
  n_fault_drop : int;
  n_fault_dup : int;
  n_fault_delay : int;
  (* Device ids are small dense ints assigned by [Run], so the endpoint
     table is a plain array indexed by id (grown on register) instead of a
     Hashtbl — no hashing on the delivery hot path. *)
  mutable endpoints : Engine.endpoint option array;
  (* Active fault-injection plan.  Decisions come from per-(src, dst) link
     RNG streams derived from the plan seed, so one link's outcomes do not
     depend on traffic on any other link. *)
  fault : Fault.t option;
  (* Model-checker delivery hook: when installed, [send] hands every
     accounted message here instead of enqueueing a [Deliver] event (or
     routing through the fault plan), letting the checker hold it and
     choose the delivery order; held messages re-enter via
     [deliver_held]. *)
  mutable delivery_hook : (Msg.t -> latency:int -> unit) option;
  (* Per-virtual-channel (request-category) in-flight depth, armed only
     by [enable_vc_depth_metrics]: the send path increments, a wrapper
     around every endpoint handler decrements. *)
  mutable vc_depth : int array option;
}

let category_index = function
  | Msg.Cat_ReqV -> 0
  | Msg.Cat_ReqS -> 1
  | Msg.Cat_ReqWT -> 2
  | Msg.Cat_ReqO -> 3
  | Msg.Cat_WB -> 4
  | Msg.Cat_Probe -> 5

let fault t = t.fault
let faults_enabled t = Option.is_some t.fault

let register t ~id handler =
  if id < 0 then invalid_arg "Network.register: negative id";
  if id >= Array.length t.endpoints then begin
    let grown =
      Array.make (max (id + 1) (2 * Array.length t.endpoints)) None
    in
    Array.blit t.endpoints 0 grown 0 (Array.length t.endpoints);
    t.endpoints <- grown
  end;
  match t.endpoints.(id) with
  | Some ep -> ep.Engine.handler <- handler
  | None ->
    t.endpoints.(id) <-
      Some { Engine.handler; ingress_free = 0; in_flight = t.in_flight }

let endpoint t id =
  if id < 0 || id >= Array.length t.endpoints then
    failwith (Printf.sprintf "Network: unregistered endpoint %d" id)
  else
    match t.endpoints.(id) with
    | Some ep -> ep
    | None -> failwith (Printf.sprintf "Network: unregistered endpoint %d" id)

let enqueue t ~cat ~delay msg (ep : Engine.endpoint) =
  (match t.vc_depth with Some a -> a.(cat) <- a.(cat) + 1 | None -> ());
  incr ep.Engine.in_flight;
  Engine.deliver t.engine ~delay msg ep

let send t (msg : Msg.t) =
  let now = Engine.now t.engine in
  if Trace.on t.trace then
    Trace.msg_send t.trace ~time:now ~src:msg.src ~dst:msg.dst
      ~txn:msg.txn ~kind:(Msg.kind_index msg.kind) ~line:msg.line;
  let flits = Msg.flits msg in
  let hops = t.topo.hops ~src:msg.src ~dst:msg.dst in
  let cat = category_index (Msg.category msg.kind) in
  t.traffic.(cat) <- t.traffic.(cat) + (flits * hops);
  t.messages <- t.messages + 1;
  Stats.bump t.stats t.kind_keys.(Msg.kind_index msg.kind);
  let latency = t.topo.latency ~src:msg.src ~dst:msg.dst in
  (* Closure-free hot path: enqueue a typed [Deliver] event; the engine
     applies the one-message-per-cycle ingress drain and invokes
     [ep.handler] (decrementing [in_flight]) from the [Handle] event. *)
  let ep = endpoint t msg.dst in
  match t.delivery_hook with
  | Some hook ->
    (* The hook (model checker) holds messages arbitrarily long and may
       re-deliver them; detach from the pool. *)
    Msg.keep msg;
    hook msg ~latency
  | None -> (
  match t.fault with
  | None -> enqueue t ~cat ~delay:latency msg ep
  | Some fault -> (
    (* Under fault injection a message can be dropped (retry closures
       re-read it), duplicated (two Deliver events share one record) or
       replayed from a reply cache — blanket-detach instead of tracking
       which path each message takes.  Fault runs are off the measured
       hot path. *)
    Msg.keep msg;
    match Fault.route fault ~now ~latency msg with
    | Fault.Drop ->
      if Trace.on t.trace then
        Trace.instant t.trace ~time:now ~dev:msg.src ~name:t.n_fault_drop
          ~txn:msg.txn ~arg:(Msg.kind_index msg.kind)
    | Fault.Deliver delays ->
      (match delays with
      | [ delay ] when delay <> latency && Trace.on t.trace ->
        Trace.instant t.trace ~time:now ~dev:msg.src ~name:t.n_fault_delay
          ~txn:msg.txn ~arg:(delay - latency)
      | _ -> ());
      List.iteri
        (fun i delay ->
          (* Duplicate copies occupy the fabric too. *)
          if i > 0 then begin
            t.traffic.(cat) <- t.traffic.(cat) + (flits * hops);
            if Trace.on t.trace then
              Trace.instant t.trace ~time:now ~dev:msg.src
                ~name:t.n_fault_dup ~txn:msg.txn ~arg:delay
          end;
          enqueue t ~cat ~delay msg ep)
        delays))

let set_delivery_hook t hook = t.delivery_hook <- Some hook
let clear_delivery_hook t = t.delivery_hook <- None

let deliver_held t (msg : Msg.t) =
  let ep = endpoint t msg.dst in
  incr ep.Engine.in_flight;
  Engine.deliver t.engine ~delay:0 msg ep

let wrap_handler t ~id wrap =
  let ep = endpoint t id in
  ep.Engine.handler <- wrap ep.Engine.handler

let create ?fault engine topo =
  let stats = Stats.create () in
  let kind_keys =
    let keys = Array.make Msg.num_kinds (Stats.key stats "ReqV") in
    List.iter
      (fun k -> keys.(Msg.kind_index k) <- Stats.key stats (Msg.kind_name k))
      Msg.all_kinds;
    keys
  in
  let trace = Engine.trace engine in
  let t =
    {
      topo;
      engine;
      traffic = Array.make 6 0;
      stats;
      kind_keys;
      in_flight = ref 0;
      messages = 0;
      trace;
      n_fault_drop = Trace.name trace "fault.drop";
      n_fault_dup = Trace.name trace "fault.dup";
      n_fault_delay = Trace.name trace "fault.delay";
      endpoints = Array.make 64 None;
      fault = Option.map (fun spec -> Fault.create spec ~stats) fault;
      delivery_hook = None;
      vc_depth = None;
    }
  in
  (* Components enqueue outbound messages as typed [Egress] events
     ({!Engine.send_later}) instead of per-message closures; install the
     dispatch target once. *)
  Engine.set_egress engine (send t);
  Engine.register_pending_source engine (fun () ->
      let n = !(t.in_flight) in
      if n = 0 then []
      else
        [
          {
            Engine.pw_device = "net";
            pw_txn = -1;
            pw_line = -1;
            pw_what = Printf.sprintf "%d message(s) in flight" n;
          };
        ]);
  t

let in_flight t = !(t.in_flight)

let traffic_flits t cat = t.traffic.(category_index cat)
let total_flits t = Array.fold_left ( + ) 0 t.traffic
let messages_sent t = t.messages
let stats t = t.stats

(* ----- metrics ------------------------------------------------------------- *)

let register_metrics t reg =
  let module Metrics = Spandex_obs.Metrics in
  Metrics.counter reg ~name:"spandex_net_messages_total"
    ~help:"messages sent" (fun () -> t.messages);
  Metrics.gauge reg ~name:"spandex_net_in_flight" ~track:(0, "net.in_flight")
    ~help:"messages sent but not yet delivered" (fun () -> !(t.in_flight));
  List.iter
    (fun cat ->
      let i = category_index cat in
      Metrics.counter reg ~name:"spandex_net_flits_total"
        ~labels:[ ("vc", Msg.category_name cat) ]
        ~help:"flit-hops sent per virtual channel (request category)"
        (fun () -> t.traffic.(i)))
    Msg.all_categories;
  if Option.is_some t.fault then
    List.iter
      (fun what ->
        Metrics.counter reg
          ~name:(Printf.sprintf "spandex_net_fault_%s_total" what)
          ~help:"fault-injection outcomes on the interconnect" (fun () ->
            Stats.get t.stats ("fault." ^ what)))
      [ "injected"; "drop"; "dup"; "delay"; "reorder"; "exempt" ]

(* Arm the per-VC in-flight depth gauges.  Call after every endpoint has
   registered — later [register] calls on fresh ids would bypass the
   decrement wrapper. *)
let enable_vc_depth_metrics t reg =
  let module Metrics = Spandex_obs.Metrics in
  if t.vc_depth = None && Metrics.on reg then begin
    let a = Array.make 6 0 in
    t.vc_depth <- Some a;
    Array.iter
      (function
        | None -> ()
        | Some ep ->
          let prev = ep.Engine.handler in
          ep.Engine.handler <-
            (fun msg ->
              let i = category_index (Msg.category msg.Msg.kind) in
              a.(i) <- a.(i) - 1;
              prev msg))
      t.endpoints;
    List.iter
      (fun cat ->
        let i = category_index cat in
        Metrics.gauge reg ~name:"spandex_net_vc_depth"
          ~labels:[ ("vc", Msg.category_name cat) ]
          ~help:"in-flight messages per virtual channel" (fun () -> a.(i)))
      Msg.all_categories
  end
