(** Shared L1 transaction chassis.

    Every private cache in the model — the two DeNovo-family L1s, the MESI
    L1 and the MESI client L2 shim — shares the same transaction plumbing:
    MSHR allocate/retire, end-to-end retry-timer arming and cancellation,
    trace span begin/end with the interned instant names, store-buffer
    aging and drain scheduling, release flushing, and stalled-store wakeup.
    This module owns that plumbing once; a protocol keeps only its state
    machine (frame contents, outstanding-transaction payloads, external
    request handling) and installs its drain routine and pending-write
    census as hooks.

    The record is exposed: protocols read the shared fields directly and
    the chassis stays a passive toolbox, not an inversion-of-control
    framework.  ['o] is the protocol's outstanding-transaction type. *)

module Stats = Spandex_util.Stats
module Retry = Spandex_util.Retry
module Engine = Spandex_sim.Engine
module Trace = Spandex_sim.Trace
module Msg = Spandex_proto.Msg
module Network = Spandex_net.Network
module Mshr = Spandex_mem.Mshr
module Store_buffer = Spandex_mem.Store_buffer

type 'o t = {
  engine : Engine.t;
  net : Network.t;
  id : Msg.device_id;
  home_id : Msg.device_id;  (** LLC / directory base id. *)
  home_banks : int;
  hit_latency : int;
  coalesce_window : int;
  sb_capacity : int;
  txns : Spandex_proto.Txn.allocator;
      (** per-device txn-id source, shared with [outstanding]; ids depend
          only on this device's allocation order. *)
  outstanding : 'o Mshr.t;
  sb : Store_buffer.t;
  stats : Stats.t;
  (* Interned counters for the per-op fast paths common to all L1s. *)
  k_load_hit : Stats.key;
  k_load_miss : Stats.key;
  k_load_sb_fwd : Stats.key;
  k_stores : Stats.key;
  (* End-to-end request retries; armed only when the network injects
     faults, so fault-free runs are bit-identical to the reliable model. *)
  retry : Retry.t option;
  trace : Trace.t;
  n_retry : int;  (** interned trace names (0 on a disabled sink). *)
  n_nack : int;
  n_chain : int;
  name : string;  (** ["<level>.<id>"]. *)
  mutable flushing : bool;
  mutable drain_armed : bool;
  mutable release_waiters : (unit -> unit) list;
  mutable stalled_stores : (unit -> unit) list;
  mutable drain : unit -> unit;
      (** installed by the protocol; invoked by the armed drain tick. *)
  mutable writes_pending : unit -> int;
      (** installed by the protocol; gates release completion. *)
  mutable drain_tick : unit -> unit;
      (** preallocated tick closure so {!arm_drain} allocates nothing. *)
  mutable source_line : 'o -> int;
      (** installed by the protocol: line an outstanding entry targets,
          for the pending source ([-1] when unknown). *)
  mutable source_what : 'o -> string;
      (** installed by the protocol: short kind of an outstanding entry. *)
}

val create :
  Engine.t ->
  Network.t ->
  id:Msg.device_id ->
  home_id:Msg.device_id ->
  home_banks:int ->
  hit_latency:int ->
  coalesce_window:int ->
  mshrs:int ->
  sb_capacity:int ->
  level:string ->
  device:string ->
  'o t
(** [level] names the occupancy trace counter tracks
    (["<level>.<id>.mshr"]); [device] names the L1's work in the engine
    pending source the chassis registers (MSHR entries, buffered and
    stalled stores — what {!quiescent} checks), and should be the L1's
    [Run] device name.  Does not register a network handler: the
    protocol owns message dispatch. *)

val fresh_txn : 'o t -> int
(** Draw a transaction id from the device's allocator — for transactions
    tracked outside the MSHR file (write-back records). *)

val send : 'o t -> Msg.t -> unit
(** Inject after the L1's hit latency. *)

val request :
  'o t ->
  txn:int ->
  kind:Msg.req_kind ->
  line:int ->
  mask:Spandex_util.Mask.t ->
  ?demand:Spandex_util.Mask.t ->
  ?payload:Msg.payload ->
  ?amo:Spandex_proto.Amo.t ->
  unit ->
  unit
(** Build and send a request to the line's home bank, opening its trace
    span and arming the retry timer (when faults are on). *)

val retire : 'o t -> txn:int -> unit
(** Cancel the retry timer and close the trace span — for transactions
    tracked outside the MSHR file (write-back records). *)

val free_txn : 'o t -> txn:int -> unit
(** Free the MSHR entry, then {!retire}. *)

val trace_chain : 'o t -> txn:int -> txn':int -> unit
(** Link a protocol-level follow-up transaction for [explain]. *)

val trace_nack : 'o t -> txn:int -> count:int -> unit
(** Record a Nacked collection (count of nacked words). *)

val reply :
  'o t ->
  Msg.t ->
  kind:Msg.rsp_kind ->
  dst:Msg.device_id ->
  mask:Spandex_util.Mask.t ->
  ?payload:Msg.payload ->
  unit ->
  unit
(** Respond to an external request; empty masks send nothing. *)

val reply_data :
  'o t ->
  Msg.t ->
  kind:Msg.rsp_kind ->
  dst:Msg.device_id ->
  mask:Spandex_util.Mask.t ->
  values:int array ->
  unit
(** {!reply} carrying the masked words of [values]. *)

val entry_ready : ?forced:bool -> 'o t -> int -> bool
(** A store-buffer entry issues once aged past the coalesce window,
    immediately when [forced], a release is flushing, or the buffer is
    half full. *)

val check_release : 'o t -> unit
(** Complete a pending release once the buffer is empty and the
    protocol's [writes_pending] census reaches zero. *)

val arm_drain : 'o t -> delay:int -> unit
(** Schedule the protocol's drain, coalescing concurrent arms. *)

val release : 'o t -> k:(unit -> unit) -> unit
(** Begin a release: flush the store buffer and call [k] when all
    outstanding writes have committed. *)

val wake_stalled : 'o t -> unit
(** Re-run stores that stalled on a full buffer (a drained entry may have
    freed space). *)

val stall_store : 'o t -> (unit -> unit) -> unit
(** Park a store that found the buffer full and arm a drain. *)

val register_metrics :
  'o t ->
  device:string ->
  ?aux:string * string * (unit -> int) ->
  Spandex_obs.Metrics.t ->
  unit
(** Register the chassis's standard probes on a metrics registry: MSHR
    occupancy, store-buffer occupancy (or the [aux] (metric name, track
    suffix, probe) gauge a protocol substitutes), store-buffer full-stall
    and retry counters — all labelled [device].  The two occupancy gauges
    feed the ["<level>.<id>.mshr"] and ["<level>.<id>.sb"] (or
    ["<level>.<id>.<suffix>"]) trace counter tracks. *)

val quiescent : 'o t -> bool
(** Store buffer empty, MSHR file empty, no stalled stores.  Protocols
    conjoin their own records (write-backs, parked requests). *)

val fingerprint :
  'o t ->
  Spandex_util.Fingerprint.t ->
  key:('o -> int) ->
  payload:(Spandex_util.Fingerprint.t -> 'o -> unit) ->
  unit
(** Append a canonical encoding of the shared transaction state (store
    buffer sorted by line, MSHR entries sorted by [key] — the protocol
    supplies a content key, typically [line * k + kind-tag] — then
    encoded by [payload]).  Used by the model checker. *)
