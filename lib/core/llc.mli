(** The Spandex LLC: the paper's primary contribution (§III-B).

    The LLC is the coherence point for all attached device caches.  It
    tracks line-level Invalid/Valid/Shared state plus a per-word owned bit
    and per-word owner ID, serializes all writes, and handles each request
    per Table III:

    - ReqV: respond with the words valid at the LLC; forward demanded
      remotely-owned words to their owners (no state change, Fig. 1c).
    - ReqS: option (1) — grant Shared state, revoking MESI owners via a
      blocking forwarded ReqS — when the line is Shared or a MESI device
      owns target words; option (3) — treat as ReqO+data — otherwise.
    - ReqWT: update LLC data immediately; invalidate sharers (blocking) if
      Shared; forward an ownership-revoking ReqO to prior owners (Fig. 1d).
    - ReqO / ReqO+data: transfer ownership without blocking — the owner ID
      is updated immediately and the request is forwarded to the prior
      owner, who responds directly to the requestor (Fig. 1a).
    - ReqWT+data: perform the (possibly atomic) update at the LLC; requires
      a blocking RvkO write-back when the data is remotely owned (Fig. 1b).
    - ReqWB: accept write-backs from the registered owner; acknowledge and
      drop write-backs from non-owners (racing transfers).

    Allocation is at line granularity; fills and evictions go through a
    pluggable {!Backing.t}, which also delivers parent recalls when the
    engine is used as the hierarchical GPU L2. *)

type device_kind = Kind_mesi | Kind_denovo | Kind_gpu
(** Attached-device classification, used by the [Reqs_auto] policy
    (paper §III-B: option (1) "if the target data is in S state or owned in
    a MESI core", option (3) otherwise). *)

type reqs_policy =
  | Reqs_auto
      (** the paper's evaluated policy: option (1) when the line is Shared
          or a MESI device owns target words, option (3) otherwise. *)
  | Reqs_shared  (** always option (1): grant Shared state. *)
  | Reqs_valid
      (** always option (2): answer like a ReqV; the requestor must
          self-invalidate after the read, precluding reuse. *)
  | Reqs_owned  (** always option (3): grant ownership with the data. *)

type config = {
  llc_id : Spandex_proto.Msg.device_id;  (** first bank endpoint. *)
  banks : int;
      (** lines interleave across network endpoints
          [llc_id .. llc_id + banks - 1], giving the LLC bank-level request
          parallelism (Table VI: 16-bank NUCA). *)
  sets : int;
  ways : int;
  access_latency : int;  (** cycles between arrival and response dispatch. *)
  kind_of : Spandex_proto.Msg.device_id -> device_kind;
  reqs_policy : reqs_policy;
      (** how writer-invalidated reads are served (§III-B, Table III rows
          ReqS (1)/(2)/(3)); [Reqs_auto] reproduces the paper's evaluation. *)
}

type t

val create :
  ?name:string ->
  Spandex_sim.Engine.t ->
  Spandex_net.Network.t ->
  Backing.t ->
  config ->
  t
(** Registers the LLC on the network under [llc_id .. llc_id + banks - 1]
    and installs the recall handler on the backing.  Each bank keeps its
    own probe-txn allocator, stats and trace names, and touches only the
    lines that interleave to it.  Each bank also registers an engine
    pending source named ["<name>.b<bank>"] ([name] defaults to ["llc"];
    the hierarchical GPU L2 passes ["gpu_l2"]) reporting its pending,
    blocked and recall-queued lines. *)

val bank_count : t -> int

val quiescent : t -> bool
val bank_quiescent : t -> int -> bool
(** Bank [b]'s lines are settled and its backing is quiescent. *)

val bank_stats : t -> int -> Spandex_util.Stats.t
(** Bank [b]'s counters; merge all banks under one prefix to reproduce
    the aggregate ({!Spandex_util.Stats.merge_into} sums). *)

val bank_register_metrics :
  t -> device:string -> int -> Spandex_obs.Metrics.t -> unit
(** Register one bank's probes ([Run] registers each bank as its own
    component): the resident-line gauge, pending/blocked
    transaction-pressure gauges, and the reply-cache replay counter —
    labelled [device] and [bank] (the flat LLC and the hierarchical GPU
    L2 are both this module).  The pending/blocked gauges feed the
    ["llc.pending"] / ["llc.blocked"] trace counter tracks, dev = the
    bank endpoint. *)

(** {2 Introspection for tests} *)

val line_state : t -> line:int -> Spandex_proto.State.llc_line option
(** [None] when the line is not resident. *)

val owner_of : t -> Spandex_proto.Addr.t -> Spandex_proto.Msg.device_id option
val owned_mask : t -> line:int -> Spandex_util.Mask.t
val sharers : t -> line:int -> Spandex_proto.Msg.device_id list
val peek_word : t -> Spandex_proto.Addr.t -> int option
(** LLC's current copy of a word ([None] if not resident); stale for words
    owned remotely. *)

val resident_lines : t -> int

val fingerprint : t -> Spandex_util.Fingerprint.t -> unit
(** Append a canonical encoding of the full architectural state (resident
    lines, pending operations, blocked queues, replay cache) for the model
    checker's visited-state cache. *)
