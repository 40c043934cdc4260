(** Typed, ring-buffered transaction trace sink.

    One sink per simulation records span begin/end pairs (one span per
    protocol transaction, keyed by [Txn] id and classified by request
    kind), instant events (retries, faults, nacks, replays), periodic
    counter samples (MSHR / store-buffer / queue occupancy) and every
    network message send.  Completed spans additionally feed per-request-
    class latency histograms ({!Spandex_util.Hist}).

    The disabled path is a single branch on the immutable [enabled] flag:
    every recording function starts with [if t.enabled then ...] and takes
    only unboxed int arguments, so a simulation built with {!disabled}
    allocates nothing and schedules nothing on behalf of tracing — results
    are bit-identical to a pre-trace build.  Events are stored
    struct-of-arrays in a fixed ring; when it wraps, the oldest events are
    dropped (and counted) rather than growing. *)

type spec = {
  capacity : int;
      (** ring capacity in events; rounded up to a power of two. *)
  sample_every : int;  (** cycles between occupancy counter samples. *)
}

val default_spec : spec
(** 65536 events, sample every 64 cycles. *)

type t

val disabled : t
(** The shared off sink: recording is a no-op, [on] is false.  Never
    mutated, so it is safe to share across sweep worker domains. *)

val create : spec -> t

val on : t -> bool
(** Whether this sink records.  Hot paths guard with [if Trace.on tr] so
    the disabled cost is one load + branch. *)

val sample_every : t -> int

(* ----- recording (all no-ops when disabled) ------------------------------- *)

val name : t -> string -> int
(** Intern an instant/counter name at component-creation time.  Returns 0
    on a disabled sink without mutating it. *)

val span_begin : t -> time:int -> dev:int -> txn:int -> cls:int -> line:int -> unit
(** Open the span for [txn] (a request issued by device [dev]); [cls] is
    the {!Spandex_proto.Msg.req_kind_index} of the request class. *)

val span_end : t -> time:int -> dev:int -> txn:int -> unit
(** Close [txn]'s span; records the latency into the class histogram.
    Ignored if no matching {!span_begin} was recorded. *)

val instant : t -> time:int -> dev:int -> name:int -> txn:int -> arg:int -> unit
(** A point event ([name] from {!name}); [txn] is the related transaction
    or [-1]; [arg] is event-specific (e.g. the successor txn id of a
    protocol-level retry). *)

val counter : t -> time:int -> dev:int -> name:int -> value:int -> unit

val msg_send :
  t -> time:int -> src:int -> dst:int -> txn:int -> kind:int -> line:int -> unit
(** One network message injection; [kind] is {!Spandex_proto.Msg.kind_index}. *)

(* ----- inspection ---------------------------------------------------------- *)

val total : t -> int
(** Events ever recorded (including dropped ones). *)

val recorded : t -> int
(** Events still held in the ring. *)

val dropped : t -> int

val cls_name : int -> string
(** Request-class display name by {!Spandex_proto.Msg.req_kind_index}. *)

val latency : t -> cls:int -> Spandex_util.Hist.t
(** Per-class issue-to-reply latency histogram.  Raises on {!disabled}. *)

val latency_summaries : t -> (string * Spandex_util.Hist.summary) list
(** (class name, summary) for every class with at least one completed
    span; [[]] on a disabled sink. *)

val open_spans : t -> int
(** Spans begun but not yet ended (in-flight transactions). *)

type event =
  | Span_begin of { time : int; dev : int; txn : int; cls : int; line : int }
  | Span_end of { time : int; dev : int; txn : int; cls : int; latency : int }
  | Instant of { time : int; dev : int; name : string; txn : int; arg : int }
  | Counter of { time : int; dev : int; name : string; value : int }
  | Msg_send of {
      time : int;
      src : int;
      dst : int;
      txn : int;
      kind : int;
      line : int;
    }

val iter : t -> f:(event -> unit) -> unit
(** Decode the ring oldest-to-newest. *)

val kind_name : int -> string
(** Message-kind display name by {!Spandex_proto.Msg.kind_index} (for
    rendering {!event-Msg_send} events). *)

(* ----- export -------------------------------------------------------------- *)

val export_chrome :
  ?extra:(emit:(string -> unit) -> unit) ->
  t ->
  device_name:(int -> string) ->
  Buffer.t ->
  unit
(** Chrome trace-event JSON (Perfetto-loadable): one track per device
    (async "b"/"e" slices per transaction, instants, counters), plus
    thread-name metadata.  [?extra] is called after the trace's own
    events with an [emit] that appends one pre-rendered trace-event JSON
    object to the same array — the metrics registry uses it to merge its
    time series in as counter tracks. *)

val export_jsonl : t -> device_name:(int -> string) -> Buffer.t -> unit
(** One JSON object per line, schema ["spandex-trace/1"]: a header line
    then every event in order. *)
