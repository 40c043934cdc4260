(** The interface every L1 cache presents to its core.

    Each protocol library (MESI, GPU coherence, DeNovo) builds one of these
    records; the core model is protocol-agnostic.  All callbacks fire as
    simulation events — possibly in the same cycle for hits.  What the L1
    still holds (misses, buffered stores) it reports through its engine
    pending source, not through the port. *)

type t = {
  load : Spandex_proto.Addr.t -> k:(int -> unit) -> unit;
      (** [k] receives the loaded value when it is bound. *)
  store : Spandex_proto.Addr.t -> value:int -> k:(unit -> unit) -> unit;
      (** [k] fires when the store is accepted (buffered or completed);
          the port stalls the caller while the store buffer is full. *)
  rmw : Spandex_proto.Addr.t -> Spandex_proto.Amo.t -> k:(int -> unit) -> unit;
      (** atomic RMW with acquire+release semantics; [k] receives the
          pre-update value. *)
  acquire : k:(unit -> unit) -> unit;
      (** DRF acquire: wait for pending reads, self-invalidate stale data
          (protocols without self-invalidation complete immediately). *)
  acquire_region : region:int -> k:(unit -> unit) -> unit;
      (** region-selective acquire (paper II-C): invalidate only the named
          region's stale data; defaults to a full acquire. *)
  release : k:(unit -> unit) -> unit;
      (** DRF release: complete all buffered/pending writes. *)
}
