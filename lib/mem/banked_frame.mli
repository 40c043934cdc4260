(** Address-interleaved banked tag array.

    Bank [b] holds the lines ≡ b (mod banks), keyed inside the bank by
    [line / banks].  Because [banks] must divide [sets], global set [s]
    corresponds exactly to (bank [s mod banks], bank-local set
    [s / banks]): conflict sets and per-set LRU order are unchanged, so
    banking is behaviour-neutral — what it buys is structural.  Each bank
    owns a disjoint slice of the tag/state arrays, so per-bank occupancy
    and per-bank pending work are direct reads.  Shared by the Spandex LLC
    and the MESI directory. *)

type 'a t

val create : banks:int -> sets:int -> ways:int -> 'a t
(** Raises [Invalid_argument] unless [banks ≥ 1] and [banks] divides
    [sets]. *)

val banks : 'a t -> int

val find : 'a t -> line:int -> 'a option
val find_exn : 'a t -> line:int -> 'a
val touch : 'a t -> line:int -> unit
val remove : 'a t -> line:int -> unit

val insert :
  'a t ->
  line:int ->
  'a ->
  can_evict:(line:int -> 'a -> bool) ->
  'a Cache_frame.insert_result
(** All line numbers (argument, [can_evict] callback, [Evicted] result)
    are global. *)

val lru_matching :
  'a t -> set_line:int -> f:(line:int -> 'a -> bool) -> (int * 'a) option
(** LRU-first scan of [set_line]'s conflict set (which lives entirely in
    one bank); global line numbers. *)

val fold : 'a t -> init:'b -> f:('b -> line:int -> 'a -> 'b) -> 'b
(** Over all banks, in bank order. *)

val fold_bank : 'a t -> int -> init:'b -> f:('b -> line:int -> 'a -> 'b) -> 'b
(** Over one bank's resident lines only. *)

val count : 'a t -> int
val count_bank : 'a t -> int -> int
