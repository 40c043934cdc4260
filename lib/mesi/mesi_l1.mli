(** MESI L1 cache (paper §II-A, Table II).

    Line-granularity I/S/E/M states, writer-initiated invalidation,
    read-for-ownership writes: read misses issue ReqS for the full line;
    write and RMW misses issue ReqO+data for the full line (Table II — a
    line-granularity ownership cache does not generally overwrite the whole
    line, so it must fetch data with ownership); replacements of E/M lines
    write back the full line.  Acquire/release are ordering-only: MESI
    never self-invalidates.

    The same implementation attaches to the directory MESI LLC of the
    hierarchical baseline (which only ever exercises line-granularity
    externals) and, through its TU behaviours, to a Spandex LLC — where it
    must also handle word-granularity forwarded requests and probes,
    triggering a ReqWB for the non-downgraded words of a partially revoked
    line (paper Fig. 1d, §III-D). *)

type config = {
  id : Spandex_proto.Msg.device_id;
  llc_id : Spandex_proto.Msg.device_id;  (** first backing-cache bank endpoint. *)
  llc_banks : int;
  sets : int;
  ways : int;
  mshrs : int;
  sb_capacity : int;
  hit_latency : int;
  coalesce_window : int;
  notify_home_on_fwd_getm : bool;
      (** hierarchical directories block ownership transfers and need an
          explicit completion ack (RspRvkO without data) from the old
          owner; the Spandex LLC does not. *)
}

type t

val create : Spandex_sim.Engine.t -> Spandex_net.Network.t -> config -> t
(** Names its work ["mesi_l1.<id>"] in its engine pending source, as [Run]
    names a MESI CPU L1. *)

val port : t -> Spandex_device.Port.t
val stats : t -> Spandex_util.Stats.t

val register_metrics : t -> device:string -> Spandex_obs.Metrics.t -> unit
(** Register the chassis occupancy/stall/retry probes, labelled
    [device]; the occupancy gauges feed the ["l1.<id>.mshr"] /
    ["l1.<id>.sb"] trace counter tracks. *)

(** {2 Test introspection} *)

val line_state : t -> line:int -> Spandex_proto.State.mesi
val peek_word : t -> Spandex_proto.Addr.t -> int option
val cached_lines : t -> int

val owned_mask : t -> line:int -> Spandex_util.Mask.t
(** Full mask when the line is held E/M (MESI write permission is
    line-granular), empty otherwise — the model checker's SWMR claim. *)

val fingerprint : t -> Spandex_util.Fingerprint.t -> unit
(** Append a canonical encoding of the full architectural state for the
    model checker's visited-state cache. *)
