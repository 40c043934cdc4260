(** Miss status holding registers.

    A capacity-limited table of outstanding transactions, generic over the
    per-miss bookkeeping each protocol needs.  Entries are keyed by the
    transaction id of the request they track. *)

type 'a t

val create : ?fresh_txn:(unit -> int) -> capacity:int -> unit -> 'a t
(** [fresh_txn] (default {!Spandex_proto.Txn.fresh}) supplies transaction
    ids for {!alloc}; devices pass a per-device {!Spandex_proto.Txn.next}
    so ids depend only on that device's own allocation order. *)

val alloc : 'a t -> 'a -> int option
(** Allocate an entry under a fresh transaction id, or [None] if full. *)

val find : 'a t -> txn:int -> 'a option

val find_exn : 'a t -> txn:int -> 'a
(** Allocation-free {!find}; raises [Not_found] when absent.  For hot
    paths — pair with a [match ... with exception Not_found] handler. *)

val free : 'a t -> txn:int -> unit
val is_full : 'a t -> bool
val count : 'a t -> int

(** The searches take the entry's key (a line, a word) as two ints and
    pass them to [f] with each entry, so [f] can be a closed function: a
    search then allocates nothing. *)

val find_first_exn : 'a t -> int -> int -> f:(int -> int -> 'a -> bool) -> 'a
(** [find_first_exn t a b ~f] is the entry with the smallest transaction id
    satisfying [f a b] — i.e. the oldest matching miss; raises [Not_found]
    when no entry matches. *)

val exists : 'a t -> int -> int -> f:(int -> int -> 'a -> bool) -> bool
(** Whether some entry satisfies [f a b].  The scan may stop at the first
    match in slot order, so [f] must be pure. *)

val iter : 'a t -> f:(txn:int -> 'a -> unit) -> unit
