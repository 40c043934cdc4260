(** Workload-construction utilities.

    Generators build per-thread programs while tracking the expected value
    of every word (initial contents follow
    {!Spandex_proto.Linedata.init_word}), so data-race-free reads can be
    emitted as [Check] ops — every experiment doubles as a coherence test. *)

type region
(** A contiguous range of words, line-aligned and disjoint from every other
    region of the same allocator. *)

type alloc

val allocator : unit -> alloc
val region : alloc -> words:int -> region
val addr : region -> int -> Spandex_proto.Addr.t
(** [addr r i] is the i-th word of the region; bounds-checked. *)

(** {2 Expected-value tracking} *)

type mem

val mem : unit -> mem
val read : mem -> Spandex_proto.Addr.t -> int
(** Current expected value (initial memory contents if never written). *)

val write : mem -> Spandex_proto.Addr.t -> int -> unit

val add : mem -> Spandex_proto.Addr.t -> int -> int
(** Fetch-and-add on the expectation; returns the new value. *)

(** {2 Program builders} *)

type builder
(** One thread's or warp's program under construction.  It writes the
    packed {!Spandex_device.Program.t} directly: an address is stored as
    its flat word index, and every builder of one {!t} shares one AMO
    table. *)

val emit : builder -> Spandex_device.Ops.t -> unit
val emit_store : builder -> mem -> Spandex_proto.Addr.t -> int -> unit
(** Emit a store and record the expectation. *)

val emit_check : builder -> mem -> Spandex_proto.Addr.t -> unit
(** Emit a Check against the current expected value. *)

val emit_rmw_add : builder -> mem -> Spandex_proto.Addr.t -> int -> unit
(** Emit an atomic add and track it. *)

(** {2 Whole-workload assembly} *)

type tables
(** The address and AMO tables the workload's programs share. *)

type t = {
  cpus : builder array;
  gpus : builder array array;  (** per CU, per warp. *)
  mutable barriers : int list;  (** parties per allocated barrier, reversed. *)
  tables : tables;
}

val create : cpus:int -> cus:int -> warps:int -> t

val global_barrier : t -> unit
(** Emit a barrier joining every CPU thread and every warp. *)

val finish :
  ?region_of:(int -> int) -> t -> name:string -> Spandex_system.Workload.t
(** Seals every builder over the shared tables.  The address table holds
    one entry per flat word index up to the highest one emitted, which is
    dense because {!region} allocates from line 0.  [region_of] classifies
    lines into software regions for region-selective acquires; defaults to
    a single region. *)
