(** DeNovo L1 (paper §II-C, Table II).

    Per-word Invalid/Valid/Owned state.  Reads miss as word-granularity
    ReqV (the response may opportunistically fill the rest of the line);
    stores obtain ownership with data-less word-granularity ReqO requests
    coalesced in the store buffer; RMWs obtain ownership with ReqO+data and
    execute locally — or, when [atomics_at_llc] is set (the SDG
    configuration, §IV-A), execute at the LLC via ReqWT+data.  Acquires
    flash-invalidate Valid words but preserve Owned words, which is where
    DeNovo's reuse advantage over GPU coherence comes from; replaced Owned
    words write back with ReqWB.

    As a Spandex owner the cache answers forwarded ReqV/ReqO/ReqO+data/ReqS
    and RvkO probes at word granularity, including the §III-C races:
    requests for data mid-ReqO+data are delayed, data-less downgrades
    mid-ReqO are answered immediately, forwarded ReqV for words no longer
    owned are Nacked, and a Nacked ReqV is retried then converted. *)

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
  max_reqv_retries : int;
  atomics_at_llc : bool;
  region_of : int -> int;
      (** software region classification by line, used by region-selective
          acquires (paper II-C); pass [fun _ -> 0] when unused. *)
  policy : Spandex_l1.Spandex_policy.spec;
      (** per-request coherence policy.  [Static_own] is classic DeNovo:
          every store obtains ownership (Table II).  [Adaptive _] is the
          extension (paper V: "future caches that may dynamically adapt
          their coherence strategy"): per-line saturating reuse counters
          choose between ownership (ReqO) for lines with observed write
          reuse and write-through (ReqWT) for streaming lines, and — when
          the read threshold is enabled — promote repeatedly missed reads
          from ReqV to ReqO+data so the fill survives later acquires. *)
}

type t

val create :
  ?name:string -> Spandex_sim.Engine.t -> Spandex_net.Network.t -> config -> t
(** [name] (default ["denovo_l1.<id>"]) names the L1's work in its engine
    pending source; [Run] passes its device name. *)

val port : t -> Spandex_device.Port.t
val stats : t -> Spandex_util.Stats.t

val register_metrics : t -> device:string -> Spandex_obs.Metrics.t -> unit
(** Register the chassis occupancy/stall/retry probes, labelled
    [device]; the occupancy gauges feed the ["l1.<id>.mshr"] /
    ["l1.<id>.sb"] trace counter tracks. *)

(** {2 Test introspection} *)

val word_state : t -> Spandex_proto.Addr.t -> Spandex_proto.State.device
val peek_word : t -> Spandex_proto.Addr.t -> int option
val owned_words : t -> int
val valid_words : t -> int

val owned_mask : t -> line:int -> Spandex_util.Mask.t
(** Words of [line] held in Owned state — the cache's write-permission
    claim, as consumed by the model checker's SWMR oracle. *)

val fingerprint : t -> Spandex_util.Fingerprint.t -> unit
(** Append a canonical encoding of the full architectural state (frame,
    MSHR payloads, write-back records) for the model checker's
    visited-state cache. *)
