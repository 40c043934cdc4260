(** Shared L1 transaction chassis.

    Every private cache in the model — the two DeNovo-family L1s, the MESI
    L1 and the MESI client L2 shim — shares the same transaction plumbing:
    MSHR allocate/retire, end-to-end retry-timer arming and cancellation,
    trace span begin/end with the interned instant names, store-buffer
    aging and drain scheduling, release flushing, stalled-store wakeup,
    and write-backs in flight.  This module owns that plumbing once; a
    protocol keeps only its state machine (frame contents,
    outstanding-transaction payloads, external request handling), tells
    {!create} how to describe its MSHR entries and which of them are
    writes, and installs its drain routine as the one hook.

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

(** A write-back in flight: the words of [line] in [mask] left the frame
    and ride a ReqWB; [values] (full line, retained as given) answers
    requests the home forwards before its RspWB (§III-C, footnote 5). *)
type wb = { line : int; mask : Spandex_util.Mask.t; values : int array }

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
  describe : 'o -> int * string;
      (** an MSHR entry's line ([-1] when none) and short kind, for
          {!Spandex_sim.Engine.live_work}. *)
  is_write : int -> int -> 'o -> bool;
      (** the [is_write] given to {!create}, in {!Mshr.exists}'s keyed
          form. *)
  wbs : (int, wb) Hashtbl.t;  (** write-backs in flight, keyed by txn. *)
  k_wb_issued : Stats.key;
  mutable flushing : bool;
  mutable drain_armed : bool;
  mutable release_waiters : (unit -> unit) list;
  mutable stalled_stores : (unit -> unit) list;
  mutable drain : unit -> unit;
      (** installed by the protocol after {!create} (it recurses into the
          protocol); invoked by the armed drain tick and on RspWB. *)
  mutable drain_tick : unit -> unit;
      (** preallocated tick closure so {!arm_drain} allocates nothing. *)
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
  device:string ->
  describe:('o -> int * string) ->
  is_write:('o -> bool) ->
  'o t
(** [device], the L1's [Run] device name, names its work in the engine
    pending source the chassis registers: MSHR entries (as [describe]d),
    buffered and stalled stores, then write-backs.  A release completes
    once the store buffer is empty and no MSHR entry [is_write].  Does not
    register a network handler: the protocol owns message dispatch. *)

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

val free_txn : 'o t -> txn:int -> unit
(** Free the MSHR entry, cancel its retry timer and close its trace
    span. *)

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

val write_back :
  'o t -> line:int -> mask:Spandex_util.Mask.t -> values:int array -> unit
(** Record a write-back of [mask] under a fresh txn and send its ReqWB
    carrying those words of [values].  The record keeps [values] itself
    (not a copy) until {!finish_wb}. *)

val is_wb : 'o t -> txn:int -> bool
(** Whether [txn] is a write-back in flight. *)

val finish_wb : 'o t -> Msg.t -> unit
(** Retire the write-back a RspWB answers, then run the drain; fails on
    any other response kind. *)

val find_wb :
  'o t -> line:int -> mask:Spandex_util.Mask.t -> wb option
(** The last record, in table order, of a write-back from [line] whose
    words meet [mask] ([Addr.full_mask]: any write-back from the line). *)

val wb_words : 'o t -> line:int -> Spandex_util.Mask.t
(** The words of [line] that write-backs in flight carry. *)

val entry_ready : ?forced:bool -> 'o t -> int -> bool
(** A store-buffer entry issues once aged past the coalesce window,
    immediately when [forced], a release is flushing, or the buffer is
    half full. *)

val check_release : 'o t -> unit
(** Complete a pending release once the buffer is empty and no MSHR entry
    is a write. *)

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

val part :
  'o t ->
  ?aux:string * string * (unit -> int) ->
  fingerprint:(Spandex_util.Fingerprint.t -> unit) ->
  Spandex_device.Part.l1 option ->
  Spandex_device.Part.t
(** The device's part: the chassis's counters, [fingerprint], and its
    standard probes: MSHR occupancy, store-buffer occupancy (or the [aux]
    (metric name, track suffix, probe) gauge a protocol substitutes),
    store-buffer full-stall and retry counters, all labelled with the
    device's label.  The two occupancy gauges feed the ["<name>.mshr"] and
    ["<name>.sb"] (or ["<name>.<suffix>"]) trace counter tracks, [name]
    being the device name. *)

val fingerprint :
  'o t ->
  Spandex_util.Fingerprint.t ->
  key:('o -> int) ->
  payload:(Spandex_util.Fingerprint.t -> 'o -> unit) ->
  unit
(** Append a canonical encoding of the shared transaction state (store
    buffer sorted by line, MSHR entries sorted by [key] — the protocol
    supplies a content key, typically [line * k + kind-tag] — then
    encoded by [payload], then write-backs sorted by line and mask).
    Used by the model checker. *)

val fingerprint_waiters :
  Spandex_util.Fingerprint.t -> (int * 'k) list -> unit
(** Append the sorted words of a miss record's parked loads (word,
    continuation); the continuations are not state. *)
