(** Backing store behind a Spandex LLC.

    A flat Spandex system backs the LLC with DRAM.  The hierarchical
    baseline's intermediate GPU L2 is the same Spandex engine backed by a
    MESI client port to the directory LLC (DESIGN.md §4); that
    implementation lives in [spandex_mesi] and produces this record.  A
    backing that can hold work reports it through its own engine pending
    source; DRAM holds none (an in-flight fetch is the LLC line's). *)

type recall_kind =
  | Recall_shared
      (** the parent wants a read copy: end exclusivity, surrender internal
          ownership, keep a shared copy. *)
  | Recall_excl
      (** the parent wants the line gone: purge sharers and owners and drop
          the line. *)

type recall_handler =
  line:int -> kind:recall_kind -> k:((int array * bool) option -> unit) -> unit
(** Installed by the LLC engine.  [k] receives [Some (data, dirty)] when
    the LLC held the line, [None] when it did not (e.g. an eviction
    write-back crossed the recall in flight). *)

type t = {
  acquire : line:int -> excl:bool -> k:(int array option -> excl:bool -> unit) -> unit;
      (** Obtain permission (and data on a first fetch) for [line].  [k]
          gets the line contents when a fetch occurred, and the exclusivity
          actually granted (which is at least [excl]). *)
  writeback : line:int -> data:int array -> dirty:bool -> k:(unit -> unit) -> unit;
      (** Surrender the line on eviction. *)
  set_recall_handler : recall_handler -> unit;
}

val dram : Spandex_sim.Engine.t -> Spandex_mem.Dram.t -> t
(** DRAM backing: acquire always grants exclusivity after the memory
    latency; write-backs commit dirty data; recalls never occur. *)
