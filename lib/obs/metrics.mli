(** Time-series metrics registry — the simulator's one probe registry.

    A registry holds typed series — counters (cumulative, exported with a
    per-interval delta view), gauges, and ratios — each backed by a probe
    closure registered at system-build time.  {!sample} reads every probe
    and appends one (cycle, value) point per series.  It is driven by the
    engine's inline sampler, which fires at the first event dispatched
    past each multiple of the cadence (not on exact multiples) and never
    enqueues events, so event counts and results are bit-identical with
    metrics on or off.

    The trace sink's occupancy counters come from the same probes: a
    registry made by {!of_trace} keeps no series and instead writes every
    gauge registered with a [~track] into the trace as a counter event.

    A registry is single-domain state, owned by one simulation like every
    other component.  The {!disabled} sentinel makes every operation a
    cheap no-op. *)

type spec = { sample_every : int  (** cycles between samples (≥ 1). *) }

val default_spec : spec
(** [{ sample_every = 64 }] — the trace sink's occupancy cadence. *)

type t

val disabled : t
(** Registration and sampling are no-ops; exports render nothing. *)

val create : spec -> t

val of_trace : Spandex_sim.Trace.t -> t
(** A registry that keeps no series ({!on} is false): each {!gauge}
    registered with a [~track] becomes a trace counter track, written by
    {!sample} in registration order, at the trace's own cadence.  A
    disabled sink gives {!disabled}. *)

val on : t -> bool
(** Whether the registry keeps time series. *)

val sample_every : t -> int

(* ----- registration -------------------------------------------------------- *)

val counter :
  t ->
  name:string ->
  ?labels:(string * string) list ->
  ?help:string ->
  (unit -> int) ->
  unit
(** Register a cumulative counter probe (monotonically non-decreasing;
    name it with a [_total] suffix per OpenMetrics convention).  The CSV
    and Chrome exports additionally derive the per-interval delta. *)

val gauge :
  t ->
  name:string ->
  ?labels:(string * string) list ->
  ?help:string ->
  ?track:int * string ->
  (unit -> int) ->
  unit
(** Register an instantaneous-level probe (occupancy, queue depth…).
    [track] = (device id, counter name), e.g. [(3, "denovo_l1.3.mshr")],
    names the trace counter track the probe feeds on an {!of_trace}
    registry; series registries ignore it. *)

val ratio :
  t ->
  name:string ->
  ?labels:(string * string) list ->
  ?help:string ->
  (unit -> int * int) ->
  unit
(** Register a probe returning (numerator, denominator); exported as the
    float quotient (0 when the denominator is 0). *)

(* ----- sampling ------------------------------------------------------------ *)

val sample : t -> time:int -> unit
(** Read every probe and append one point per series at cycle [time];
    write every track into the trace sink.  Allocation-light (amortized
    column growth only) and never schedules events. *)

val sample_due : t -> time:int -> unit
(** {!sample} if [time] has reached the registry's next due cycle, then
    move that cycle to [time + sample_every].  The engine's inline sampler
    calls this for each registry, so registries with different cadences
    share one sampler.  A no-op on a registry with no series and no
    tracks. *)

(* ----- introspection ------------------------------------------------------- *)

val num_series : t -> int
val num_samples : t -> int

(* ----- export -------------------------------------------------------------- *)

val export_openmetrics : t -> Buffer.t -> unit
(** OpenMetrics text: one family per metric name ([# TYPE]/[# HELP] once,
    ratio families export as gauges), each sample's timestamp field
    carrying the simulated cycle, terminated by [# EOF].  Names are
    sanitized to [[a-zA-Z_:][a-zA-Z0-9_:]*]; device identities belong in
    labels. *)

val export_csv : t -> Buffer.t -> unit
(** Long-format CSV: [cycle,metric,labels,kind,value,delta] — [delta] is
    the since-previous-sample difference for counters, empty otherwise. *)

val chrome_counter_events : t -> emit:(string -> unit) -> unit
(** Render every sample as a Chrome trace-event counter ("ph":"C") JSON
    object for {!Spandex_sim.Trace.export_chrome}'s [~extra] hook.
    Counters emit per-interval deltas (a rate track); gauges and ratios
    emit the sampled value. *)
