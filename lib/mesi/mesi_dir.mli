(** Directory MESI LLC — the last level of the hierarchical baseline
    (paper §II-A, §II-D, §IV-A "H-MESI").

    Classic read-for-ownership, line-granularity directory: GetS (ReqS)
    misses allocate and grant Exclusive when unshared; GetM (ReqO+data)
    invalidates sharers or forwards to the owner, and the line sits in a
    {e blocking} transient state until the transfer is confirmed — the
    overhead Spandex's non-blocking word-granularity transfers avoid.
    Clients are MESI L1 caches ({!Mesi_l1}) and the hierarchical GPU L2's
    backside port ({!Mesi_client}).  Bank routing, probe ids, per-bank
    stats, the reply cache and the pending/metric probes are the shared
    banked-home layer, {!Spandex.Home} (see home.mli). *)

type config = {
  dir_id : Spandex_proto.Msg.device_id;  (** first bank endpoint. *)
  banks : int;
  sets : int;
  ways : int;
  access_latency : int;
}

type t
type meta
(** A resident line's directory entry. *)

val create :
  name:string ->
  Spandex_sim.Engine.t ->
  Spandex_net.Network.t ->
  Spandex_mem.Dram.t ->
  config ->
  t
(** Registers the directory on the network under
    [dir_id .. dir_id + banks - 1] ({!Spandex.Home.create},
    {!Spandex.Home.listen}).  A bank touches only lines ≡ bank (mod
    banks), whose DRAM accesses route to the matching {!Spandex_mem.Dram}
    channel, and registers an engine pending source named
    [Spandex.Home.bank_name name bank]; metrics are named
    ["spandex_dir_*"] and trace names ["dir.*"].  The reply cache covers ReqS and ReqOdata.  Raises
    [Invalid_argument] unless [banks ≥ 1] and [banks] divides [sets]. *)

val parts : t -> Spandex_device.Part.t array
(** {!Spandex.Home.parts}: one per bank, bank 0 carrying the whole
    directory's fingerprint. *)

val bank_stats : t -> int -> Spandex_util.Stats.t
(** Bank [b]'s counters ({!Spandex.Home.bank_stats}). *)

(** {2 Test introspection} *)

type dir_state = D_V | D_S of Spandex_proto.Msg.device_id list | D_M of Spandex_proto.Msg.device_id

val line_state : t -> line:int -> dir_state option
val peek_word : t -> Spandex_proto.Addr.t -> int option
