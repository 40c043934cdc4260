(** Interconnect model.

    Messages are delivered after a topology-determined latency; each
    endpoint drains its ingress at one message per cycle, which is the only
    source of contention modelled (DESIGN.md §6).  Traffic is accounted in
    flit-hops per request category, matching the Figure 2/3 breakdown. *)

type topology = {
  latency : src:int -> dst:int -> int;  (** delivery latency in cycles. *)
  hops : src:int -> dst:int -> int;  (** link crossings, for flit-hops. *)
  min_latency : int;
      (** smallest latency over all (src, dst) pairs; [Run] sets the
          engine's completion-check grid to it. *)
}

val flat_topology : latency:int -> topology
(** Crossbar: every pair is [latency] cycles / 1 hop apart. *)

val grouped_topology :
  group_of:(int -> int) ->
  local_latency:int ->
  cross_latency:int ->
  topology
(** Two-level: endpoints in the same group are [local_latency]/1-hop apart;
    different groups cost [cross_latency] cycles and a hop count derived
    from the same link structure (cross_latency / local_latency link
    crossings, rounded, at least 1).  Used for the hierarchical baseline's
    intra-GPU vs. cross-device distances. *)

type t

val create : ?fault:Fault.spec -> Spandex_sim.Engine.t -> topology -> t
(** [?fault] arms a fault-injection plan (see {!Fault}); when absent the
    network is reliable and delivery behavior is bit-identical to before
    fault injection existed.  Registers an engine pending source named
    ["net"] that reports the {!in_flight} count while it is nonzero. *)

val fault : t -> Fault.t option
(** The live fault-injection state, when a plan was armed at [create]. *)

val faults_enabled : t -> bool
(** True when a fault plan is active; requesters use this to decide whether
    to arm end-to-end retry timers. *)

val register : t -> id:Spandex_proto.Msg.device_id -> (Spandex_proto.Msg.t -> unit) -> unit
(** Attach the handler invoked when a message for [id] is delivered.
    Endpoints live in a dense array indexed by device id (ids are small
    dense ints assigned by [Run]).  Re-registering an id replaces its
    handler. *)

val send : t -> Spandex_proto.Msg.t -> unit
(** Enqueue [msg] for delivery to [msg.dst] as a closure-free typed engine
    event.  Raises if the destination was never registered (checked at
    send time). *)

val set_delivery_hook :
  t -> (Spandex_proto.Msg.t -> latency:int -> unit) -> unit
(** Install the model checker's delivery hook: [send] still performs all
    trace/traffic/stats accounting, then hands the message (and its
    topology latency) to the hook instead of enqueueing delivery.  The
    hook holds messages in a pool; a scheduler re-injects them in any
    order via {!deliver_held}, making message-delivery order a checker
    choice point instead of wheel FIFO. *)

val clear_delivery_hook : t -> unit

val deliver_held : t -> Spandex_proto.Msg.t -> unit
(** Deliver a message previously captured by the delivery hook: counts it
    in flight and enqueues delivery with zero additional latency (the
    checker abstracts wire time — ordering is the choice, not timing). *)

val wrap_handler :
  t ->
  id:Spandex_proto.Msg.device_id ->
  ((Spandex_proto.Msg.t -> unit) -> Spandex_proto.Msg.t -> unit) ->
  unit
(** Replace [id]'s handler with [wrap handler] — the checker's seeded-bug
    harness uses this to intercept or corrupt a device's message handling
    without touching protocol code. *)

val in_flight : t -> int
(** Messages sent but not yet delivered; used for quiescence checks. *)

val traffic_flits : t -> Spandex_proto.Msg.category -> int
val total_flits : t -> int
val messages_sent : t -> int
val stats : t -> Spandex_util.Stats.t
(** Per-kind message counters, keyed by message-kind name, plus the fault
    plan's outcome counters when one is armed. *)

val register_metrics : t -> Spandex_obs.Metrics.t -> unit
(** Register the network's probes: message and per-virtual-channel flit
    counters, the in-flight gauge (which also feeds the ["net.in_flight"]
    trace counter track, dev 0), and (fault runs) the fault-injection
    outcome counters. *)

val enable_vc_depth_metrics : t -> Spandex_obs.Metrics.t -> unit
(** Arm per-virtual-channel in-flight depth gauges: the send path counts
    each enqueued delivery up, a wrapper installed around every
    registered endpoint handler counts it back down on delivery.  No-op
    on a disabled registry; call only after all endpoints have
    registered. *)
