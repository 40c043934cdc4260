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
  name:string -> Spandex_sim.Engine.t -> Spandex_net.Network.t -> config -> t
(** [name] names the L1's work in its engine pending source. *)

val port : t -> Spandex_device.Port.t
val stats : t -> Spandex_util.Stats.t

val part : t -> Spandex_device.Part.t
(** The L1's port, counters, fingerprint (frame, then the chassis's MSHR
    payloads and write-back records) and view (the words held Owned); its
    chassis occupancy/stall/retry probes feed the ["<name>.mshr"] /
    ["<name>.sb"] trace counter tracks. *)

(** {2 Test introspection} *)

val word_state : t -> Spandex_proto.Addr.t -> Spandex_proto.State.device
val owned_words : t -> int
