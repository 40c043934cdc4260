(** MESI client port: the backside of the hierarchical GPU L2.

    Produces a {!Spandex.Backing.t} that satisfies the Spandex L2 engine's
    line acquisitions by issuing GetS / GetM (ReqS / ReqO+data) to the
    directory LLC, writes back evicted exclusive lines with PutM (ReqWB),
    and converts directory-initiated Inv / forwarded ReqS / forwarded
    ReqO+data / RvkO into parent recalls of the L2 (DESIGN.md §4).  This is
    where the hierarchical baseline pays its indirection: every GPU-side
    miss that the L2 cannot satisfy costs a second, blocking, line-granular
    MESI transaction. *)

type config = {
  id : Spandex_proto.Msg.device_id;  (** the L2's backside endpoint. *)
  dir_id : Spandex_proto.Msg.device_id;
  dir_banks : int;
  hit_latency : int;
}

type t

val create :
  name:string -> Spandex_sim.Engine.t -> Spandex_net.Network.t -> config -> t
(** Registers an engine pending source named [name]: MSHR entries and
    requests parked for an MSHR. *)

val backing : t -> Spandex.Backing.t

val part : t -> Spandex_device.Part.t
(** The chassis counters and probes; the aux gauge is the parked-request
    depth, and the occupancy gauges feed the ["<name>.mshr"] /
    ["<name>.parked"] trace counter tracks.  The fingerprint (tagged
    [name]) encodes the per-line permissions and outstanding
    acquires/write-backs. *)
