(** Directory MESI LLC — the last level of the hierarchical baseline
    (paper §II-A, §II-D, §IV-A "H-MESI").

    Classic read-for-ownership, line-granularity directory: GetS (ReqS)
    misses allocate and grant Exclusive when unshared; GetM (ReqO+data)
    invalidates sharers or forwards to the owner, and the line sits in a
    {e blocking} transient state until the transfer is confirmed — the
    overhead Spandex's non-blocking word-granularity transfers avoid.
    Clients are MESI L1 caches ({!Mesi_l1}) and the hierarchical GPU L2's
    backside port ({!Mesi_client}). *)

type config = {
  dir_id : Spandex_proto.Msg.device_id;  (** first bank endpoint. *)
  banks : int;
  sets : int;
  ways : int;
  access_latency : int;
}

type t

val create :
  Spandex_sim.Engine.t ->
  Spandex_net.Network.t ->
  Spandex_mem.Dram.t ->
  config ->
  t
(** Registers the directory on the network under
    [dir_id .. dir_id + banks - 1].  Each bank keeps its own probe-txn
    allocator, stats and trace names, and touches only lines ≡ bank (mod
    banks) — whose DRAM accesses route to the matching
    {!Spandex_mem.Dram} channel, and registers an engine pending source
    named ["dir.b<bank>"].  Raises [Invalid_argument] unless [banks ≥ 1]
    and [banks] divides [sets]. *)

val bank_count : t -> int

val bank_stats : t -> int -> Spandex_util.Stats.t
(** Bank [b]'s counters; merge all banks under one prefix to reproduce
    the aggregate ({!Spandex_util.Stats.merge_into} sums). *)

val bank_register_metrics :
  t -> device:string -> int -> Spandex_obs.Metrics.t -> unit
(** Register one bank's probes ([Run] registers each bank as its own
    component): resident-line, pending and blocked gauges plus the
    reply-cache replay counter, labelled [device] and [bank].  The
    pending/blocked gauges feed the ["dir.pending"] / ["dir.blocked"]
    trace counter tracks, dev = the bank endpoint. *)

(** {2 Test introspection} *)

type dir_state = D_V | D_S of Spandex_proto.Msg.device_id list | D_M of Spandex_proto.Msg.device_id

val line_state : t -> line:int -> dir_state option
val peek_word : t -> Spandex_proto.Addr.t -> int option

val owner_of : t -> line:int -> Spandex_proto.Msg.device_id option
(** The registered modified owner of [line], if any. *)

val fingerprint : t -> Spandex_util.Fingerprint.t -> unit
(** Append a canonical encoding of the full architectural state for the
    model checker's visited-state cache. *)
