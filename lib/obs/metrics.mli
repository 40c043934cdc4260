(** Time-series metrics registry.

    A registry holds typed series — counters (cumulative, exported with a
    per-interval delta view), gauges, and ratios — each backed by a probe
    closure registered at system-build time.  {!sample} reads every probe
    and appends one (cycle, value) point per series; it is driven by the
    engine's inline sampler on the lookahead/cycle grid, which never
    enqueues events, so event counts and results are bit-identical with
    metrics on or off.

    A registry is single-domain state, owned by one simulation like every
    other component.  The {!disabled} sentinel makes every operation a
    cheap no-op. *)

type spec = { sample_every : int  (** cycles between samples (≥ 1). *) }

val default_spec : spec
(** [{ sample_every = 64 }] — the trace sink's occupancy cadence. *)

type kind = Counter | Gauge | Ratio

val kind_name : kind -> string

type t

val disabled : t
(** Registration and sampling are no-ops; exports render nothing. *)

val create : spec -> t

val on : t -> bool
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
  (unit -> int) ->
  unit
(** Register an instantaneous-level probe (occupancy, queue depth…). *)

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
(** Read every probe and append one point per series at cycle [time].
    Called from the engine's inline sampler; allocation-light (amortized
    column growth only) and never schedules events. *)

(* ----- introspection ------------------------------------------------------- *)

val dump :
  t -> (string * (string * string) list * kind * (int * int * int) array) list
(** Every series as (name, labels, kind, [(cycle, num, den)] samples), in
    registration order — the test-facing view. *)

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
