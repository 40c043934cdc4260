(** Coalescing store buffer.

    Pending stores are held per line with a word mask and values; stores to
    a line already buffered coalesce into one entry (paper §II-B/§II-C:
    both GPU coherence and DeNovo coalesce stores to the same line in the
    write buffer).  The owning L1 decides when and how entries are issued
    (write-through vs. ownership). *)

type entry = {
  mutable line : int;
  mutable mask : Spandex_util.Mask.t;
  values : int array;  (** full line array; only masked words are live. *)
  mutable age : int;
      (** cycle of the most recent store to the line (the coalescing-window
          clock the drain logic compares against). *)
}

type t

val create : capacity:int -> t
(** [capacity] is the maximum number of line entries. *)

val push :
  t ->
  addr:Spandex_proto.Addr.t ->
  value:int ->
  now:int ->
  [ `Coalesced | `New | `Full ]
(** Add a store at cycle [now] (recorded as the entry's [age]).  [`Full]
    means no entry exists for the line and the buffer is at capacity; the
    core must stall and retry after a drain. *)

val is_empty : t -> bool
val count : t -> int

val take_oldest_exn : t -> entry
(** Remove and return the oldest entry (FIFO order of line allocation).
    Allocation-free; raises [Not_found] when empty. *)

val peek_oldest_exn : t -> entry
(** The oldest entry without removing it.  Allocation-free; raises
    [Not_found] when empty. *)

val release : t -> entry -> unit
(** Return an entry obtained from {!take_oldest_exn} to the internal free list
    once the caller is completely done with it; a later push may reuse the
    record and its values array. *)

val find : t -> line:int -> entry option
(** Entry for [line] if buffered; used for store-to-load forwarding. *)

val mem : t -> line:int -> bool
(** Allocation-free presence test. *)

val age : t -> line:int -> int
(** Cycle of the last store to [line]; 0 when the line is not buffered.
    Allocation-free. *)

val forward : t -> addr:Spandex_proto.Addr.t -> int option
(** Value a load of [addr] must observe from the buffer, if any. *)

val iter : t -> f:(entry -> unit) -> unit
