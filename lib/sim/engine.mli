(** Discrete-event simulation engine.

    Component events (callbacks, ingress grants, egress hand-offs,
    completion continuations) live in a scheduler queue ordered by
    (cycle, insertion order); network deliveries live in a separate
    delivery queue ordered by a canonical key — (arrival time, send time,
    source id, per-source sequence).  At every cycle the engine drains
    same-cycle component events before granting deliveries, so the merged
    order is a pure function of the simulated machine rather than of
    queue push interleave: the order the committed goldens pin does not
    depend on which component happened to send first within a cycle.

    The component queue is a hierarchical timing wheel
    ({!Spandex_util.Wheel}): almost every event lands 1–100 cycles ahead,
    so push/pop are O(1) with FIFO order per cycle preserved by
    construction; far-future events (retry backoff) spill to an overflow
    heap ({!Spandex_util.Pqueue}).  It is the only scheduler: the chassis
    golden pins its event order on every workload and configuration.

    Stuck work has one description: components register pending sources
    ({!register_pending_source}) that report their live work as
    {!pending_work} items, and every failure the engine raises carries
    what {!live_work} returns at that moment — {!Stuck} when the queue
    drains early, {!Livelock} when the watchdog trips, {!Deadlock} when
    the step limit is exceeded.  The three exceptions have
    [Printexc] printers, so [Printexc.to_string] shows the report. *)

type t

exception Deadlock of string
(** Raised when the step limit ({!set_step_limit}) is exceeded; the
    message names the limit and the cycle, then prints {!live_work}. *)

type pending_work = {
  pw_device : string;  (** component name, e.g. ["denovo_l1.2"]. *)
  pw_txn : int;  (** transaction id, or [-1] when not transaction-bound. *)
  pw_line : int;  (** line address, or [-1] when unknown. *)
  pw_what : string;  (** short description of the stuck work. *)
}
(** One item of live component work reported by a pending source — an
    MSHR entry, a buffered store, a parked op, a busy LLC line. *)

type stuck = {
  stuck_cycle : int;  (** cycle at which the queue drained. *)
  stuck_work : pending_work list;  (** live work left behind. *)
}

exception Stuck of stuck
(** Raised when the event queue drains before the work is done: by [run]
    when [until_done] is still false, and by [run_all] when a registered
    pending source still reports live work — a lost message or a
    protocol deadlock that would otherwise return as if the simulation
    completed. *)

val pp_pending_work : Format.formatter -> pending_work -> unit
(** ["<device>: <what> (txn N, line L)"]. *)

val pp_work : Format.formatter -> pending_work list -> unit
(** The item count, then one indented line per item. *)

val pp_stuck : Format.formatter -> stuck -> unit

val register_pending_source : t -> (unit -> pending_work list) -> unit
(** Register a closure reporting a component's still-live work.
    Components call this once at build time.  A source must report at
    least one item exactly when its component is not quiescent, naming
    the component as [Run] does (["mesi_l1.0"], ["llc.b1"], ...), so that
    a system is finished exactly when {!live_work} is empty. *)

val live_work : t -> pending_work list
(** Poll every registered pending source, in registration order.  The
    one description of live work: {!Stuck}, {!Livelock}, {!Deadlock} and
    the model checker's deadlock verdict all carry it. *)

type livelock = {
  cycle : int;  (** cycle at which the watchdog gave up. *)
  stalled_for : int;  (** cycles since the last observed progress. *)
  work : pending_work list;  (** {!live_work} when the watchdog tripped. *)
}

exception Livelock of livelock
(** Raised by the watchdog configured with {!set_watchdog} when the event
    queue keeps churning but no forward progress is observed — e.g. a
    retry storm that never completes.  Complements {!Stuck}, which only
    fires on an empty queue. *)

val pp_livelock : Format.formatter -> livelock -> unit

type endpoint = {
  mutable handler : Spandex_proto.Msg.t -> unit;
  mutable ingress_free : int;  (** next cycle the ingress port is free. *)
  in_flight : int ref;  (** owning network's in-flight counter. *)
}
(** A network delivery target.  Owned by {!Spandex_net.Network}, which
    keeps them in a dense array indexed by device id; the engine needs the
    representation to process delivery events without closures.

    Component events are an implementation detail: mutable tagged records
    (Thunk / Handle / Egress / Apply) drawn from a per-engine free-list
    and recycled at dispatch, so the steady-state hot path allocates no
    event cells.  After a Handle dispatch returns, the delivered message
    is returned to its pool unless the handler kept it
    ({!Spandex_proto.Msg.keep}). *)

val create : ?trace:Trace.t -> unit -> t
(** [trace] (default {!Trace.disabled}) is the simulation's trace sink;
    the engine only carries it so every component can reach the shared
    sink through its engine handle without signature changes. *)

val now : t -> int
(** Current simulation cycle. *)

val trace : t -> Trace.t
(** The trace sink passed to {!create}. *)

val set_lookahead : t -> int -> unit
(** Set the completion-check grid (default 1): {!run} evaluates
    [until_done] and the watchdog once per [l]-aligned window of event
    times instead of per event.  [Run] sets the topology's minimum
    latency; the finish cycle and event count of every run depend on
    this grid, so changing it moves every committed golden. *)

val set_sampler : t -> every:int -> (int -> unit) -> unit
(** Install an occupancy sampler: [f time] is invoked from the event
    dispatch loop the first time simulated time reaches each multiple-ish
    of [every] cycles (exactly: at the first event dispatched once [time]
    passes the previous sample time + [every]).  The sampler runs inline —
    it never enqueues events — so installing one does not perturb event
    counts or simulated timing.  The sampler must not schedule events or
    mutate component state. *)

val schedule : t -> delay:int -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at cycle [now t + delay]. [delay >= 0]. *)

val at : t -> time:int -> (unit -> unit) -> unit
(** Schedule at an absolute cycle, which must not be in the past. *)

val deliver : t -> delay:int -> Spandex_proto.Msg.t -> endpoint -> unit
(** Enqueue a network delivery [delay] cycles ahead, keyed for the
    canonical merge by (arrival, send time, src, per-src seq); on dispatch
    the engine applies the one-message-per-cycle ingress drain and
    re-queues the handler invocation as a component event (two events per
    delivered message, as always). *)

val set_egress : t -> (Spandex_proto.Msg.t -> unit) -> unit
(** Install the callback Egress events dispatch to — [Network.create]
    registers its [send] here so components can enqueue outbound messages
    without allocating a closure per message. *)

val send_later : t -> delay:int -> Spandex_proto.Msg.t -> unit
(** Closure-free form of [schedule t ~delay (fun () -> Network.send net
    msg)]: hands [msg] to the installed egress callback after [delay]
    cycles.  Fails at dispatch if no callback was installed. *)

val apply_later : t -> delay:int -> (int -> unit) -> int -> unit
(** Closure-free form of [schedule t ~delay (fun () -> k v)] for integer
    completion values. *)

val run : t -> until_done:(unit -> bool) -> int
(** Drain events until [until_done ()] is true; returns the finish cycle.
    Completion (and the watchdog) are evaluated at lookahead-grid window
    boundaries (see {!set_lookahead}), not between every event.  Raises
    {!Stuck} (with {!live_work}) if the queue empties first, and
    {!Deadlock} if the step limit is exceeded. *)

val run_all : ?strict:bool -> t -> int
(** Drain every queued event and return the final cycle.  For unit tests
    that drive components directly and then inspect the settled state.
    Honors the step limit like [run], raising {!Deadlock} when exceeded.
    Raises {!Stuck} if the queue drains while any registered pending
    source still reports live work (silent deadlock).  Pass
    [~strict:false] to skip the liveness audit — for harnesses that
    deliberately pause a protocol mid-transaction to inspect
    intermediate state. *)

val next_time : t -> int
(** Cycle of the earliest queued event, or [max_int] when the queue is
    empty.  Does not advance time and allocates nothing: [run], [run_all]
    and [step] peek through it. *)

val step : t -> bool
(** Dispatch exactly one event (advancing time to it); [false] when the
    queue is empty.  The model checker's execution driver — interleave
    with delivery choices between steps. *)

val set_watchdog : t -> interval:int -> progress:(unit -> int) -> unit
(** Configure the livelock watchdog: {!run} polls [progress ()] — any
    monotone counter of forward progress, e.g. retired ops — at
    lookahead-grid boundaries, throttled to every [interval / 4] cycles,
    and raises {!Livelock} (with {!live_work}) when it has not changed
    for [interval] cycles.  Polling happens from the run loop, never via
    heartbeat events, so the watchdog perturbs neither event counts nor
    simulated timing. *)

val set_step_limit : t -> int -> unit
(** Override the default step limit (events processed) of [run]. *)

val events_processed : t -> int
