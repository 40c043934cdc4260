(** Binary-heap priority queue keyed by [(time, sequence)].

    The event engine needs stable FIFO ordering among events scheduled for
    the same cycle, so each push records a monotonically increasing sequence
    number and ties are broken by it.

    The heap array holds boxed entries and uses the first pushed entry as
    its fill element for freed slots (no [Obj.magic] dummy), so at most one
    popped value is retained per queue lifetime. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] pre-sizes the heap array (default 16); it grows by doubling
    regardless. *)

val is_empty : 'a t -> bool

val push : 'a t -> time:int -> 'a -> unit
(** Insert with key [time]; FIFO among equal times. *)

val min_time : 'a t -> int
(** Time of the minimum element.  O(1), no allocation.
    @raise Invalid_argument when empty. *)

val pop_min : 'a t -> 'a
(** Remove and return the minimum-time element's value.  Allocates
    nothing; pair with {!min_time} in event loops.
    @raise Invalid_argument when empty. *)
