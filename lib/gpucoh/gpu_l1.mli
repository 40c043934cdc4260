(** GPU coherence L1 (paper §II-B, Table II).

    Valid-only states: no ownership, no Shared state, so the cache never
    receives forwarded requests or probes.  Reads miss to line-granularity
    ReqV; stores write through at word granularity (coalesced per line in
    the store buffer); atomics bypass the L1 as ReqWT+data performed at the
    backing cache; synchronization acquires flash-invalidate the whole L1
    and releases drain the write-through buffer.

    The attached TU (§III-D) coalesces partial word-granularity responses
    into line fills and retries a Nacked ReqV once before converting it to
    a ReqWT+data to guarantee forward progress. *)

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
      (** cycles a store-buffer entry ages before its write-through issues,
          giving neighbouring stores a window to coalesce. *)
  max_reqv_retries : int;  (** 1 in the paper's evaluation (§III-C). *)
}

type t

val create :
  ?name:string -> Spandex_sim.Engine.t -> Spandex_net.Network.t -> config -> t
(** [name] (default ["gpu_l1.<id>"]) names the L1's work in its engine
    pending source; [Run] passes its device name. *)

val port : t -> Spandex_device.Port.t
val stats : t -> Spandex_util.Stats.t

val register_metrics : t -> device:string -> Spandex_obs.Metrics.t -> unit
(** Register the chassis occupancy/stall/retry probes, labelled
    [device]; the occupancy gauges feed the ["l1.<id>.mshr"] /
    ["l1.<id>.sb"] trace counter tracks. *)

(** {2 Test introspection} *)

val holds_line : t -> line:int -> bool
val peek_word : t -> Spandex_proto.Addr.t -> int option
val valid_lines : t -> int

val fingerprint : t -> Spandex_util.Fingerprint.t -> unit
(** Append a canonical encoding of the full architectural state for the
    model checker's visited-state cache.  (GPU coherence never holds
    ownership, so it contributes no SWMR claims.) *)
