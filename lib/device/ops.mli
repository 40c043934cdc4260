(** Abstract core operations.

    Workload generators compile each benchmark down to one {!Program.t}
    per thread / per warp, the packed form of an array of these; the
    protocols only ever observe the memory operations and DRF
    synchronization points (paper §III-E). *)

type t =
  | Load of Spandex_proto.Addr.t
  | Store of Spandex_proto.Addr.t * int
  | Rmw of Spandex_proto.Addr.t * Spandex_proto.Amo.t
      (** atomic read-modify-write; acquire+release semantics. *)
  | Acquire  (** synchronization read side: self-invalidate stale data. *)
  | Acquire_region of int
      (** region-selective acquire (paper II-C: DeNovo regions): only data
          in the named region is potentially stale and self-invalidated;
          protocols without region support fall back to a full acquire. *)
  | Release  (** synchronization write side: drain pending writes. *)
  | Barrier of int
      (** global barrier (index into the workload's barrier table);
          implies Release before arrival and Acquire after wake-up. *)
  | Barrier_region of int * int
      (** [(barrier, region)]: as [Barrier], but the wake-up acquire is
          region-selective — only the named region's data may be stale
          across this synchronization (paper II-C). *)
  | Compute of int  (** busy for [n] core cycles. *)
  | Check of Spandex_proto.Addr.t * int
      (** load and verify the value — the workloads' built-in oracle. *)

val pp : Format.formatter -> t -> unit
