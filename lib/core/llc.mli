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
    engine is used as the hierarchical GPU L2.  Bank routing, probe ids,
    per-bank stats, the reply cache and the pending/metric probes are the
    shared banked-home layer, {!Home} (see home.mli). *)

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
  is_mesi : Spandex_proto.Msg.device_id -> bool;
      (** whether an attached device is a MESI cache, for the [Reqs_auto]
          policy (§III-B: option (1) "if the target data is in S state or
          owned in a MESI core", option (3) otherwise). *)
  reqs_policy : reqs_policy;
      (** how writer-invalidated reads are served (§III-B, Table III rows
          ReqS (1)/(2)/(3)); [Reqs_auto] reproduces the paper's evaluation. *)
}

type t
type meta
(** A resident line's state. *)

val create :
  name:string ->
  Spandex_sim.Engine.t ->
  Spandex_net.Network.t ->
  Backing.t ->
  config ->
  t
(** Registers the LLC on the network under [llc_id .. llc_id + banks - 1]
    ({!Home.create}, {!Home.listen}) and installs the recall handler on
    the backing.  Each bank registers an engine pending source named
    [Home.bank_name name bank] reporting its pending, blocked and
    recall-queued lines; its metrics are named ["spandex_llc_*"] and its
    trace names ["llc.*"] under any [name].  Every kind but ReqV is
    covered by the reply cache.  Raises [Invalid_argument] unless
    [banks ≥ 1] and [banks] divides [sets]. *)

val parts : t -> Spandex_device.Part.t array
(** {!Home.parts}: one per bank.  Bank 0 carries the fingerprint of the
    whole LLC: resident lines, pending operations, blocked queues and the
    reply cache. *)

val bank_stats : t -> int -> Spandex_util.Stats.t
(** Bank [b]'s counters ({!Home.bank_stats}). *)

(** {2 Introspection for tests} *)

val line_state : t -> line:int -> Spandex_proto.State.llc_line option
(** [None] when the line is not resident. *)

val owner_of : t -> Spandex_proto.Addr.t -> Spandex_proto.Msg.device_id option
val owned_mask : t -> line:int -> Spandex_util.Mask.t
val sharers : t -> line:int -> Spandex_proto.Msg.device_id list
val peek_word : t -> Spandex_proto.Addr.t -> int option
(** LLC's current copy of a word ([None] if not resident); stale for words
    owned remotely. *)
