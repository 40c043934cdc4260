(** Hierarchical timing wheel keyed by [(time, push order)].

    The simulation engine schedules almost every event a handful of cycles
    ahead (network latencies, ingress drain, tag and DRAM latencies), so a
    bucketed wheel of [horizon] one-cycle slots gives O(1) push and pop for
    the common case, with FIFO order among events of the same cycle
    preserved by construction (each slot is an append-only queue).  Events
    scheduled at or beyond [cur + horizon] — watchdog beats, retry backoff
    deadlines, fault-injection delays — fall back to an overflow binary
    heap ({!Pqueue}) and are popped directly from it when the wheel's
    cursor reaches their cycle.

    FIFO correctness across the two tiers: an overflow entry for cycle [T]
    can only have been pushed while [T >= cur + horizon], i.e. strictly
    before any direct slot push for [T] (the cursor is monotone), so
    draining the overflow heap before slot [T] at cycle [T] reproduces
    exactly the global push order a single [(time, seq)] heap would give.

    Times must be non-negative and never less than the last popped time
    (the engine's no-scheduling-into-the-past rule). *)

type 'a t

val create : ?horizon:int -> ?slot_capacity:int -> dummy:'a -> unit -> 'a t
(** [horizon] is the wheel span in cycles, rounded up to a power of two
    (default 512).  [slot_capacity] pre-sizes each slot's queue (default 4);
    slots grow by doubling.  [dummy] fills empty queue cells so popped
    values become collectable — it is never returned. *)

val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:int -> 'a -> unit
(** Insert with key [time]; FIFO among equal times.
    @raise Invalid_argument when [time] precedes the current cursor. *)

val min_time : 'a t -> int
(** Time of the minimum element; advances the internal cursor to it.
    O(1) when events exist at the cursor, otherwise bounded by the
    horizon (empty-slot scan) or O(1) via a direct jump when only
    overflow events remain.
    @raise Invalid_argument when empty. *)

val pop_min : 'a t -> 'a
(** Remove and return the minimum-[(time, push order)] element.  Allocates
    nothing on the slot path; pair with {!min_time} in event loops.
    @raise Invalid_argument when empty. *)

val current_time : 'a t -> int
(** The cursor position.  Immediately after {!pop_min} this is the time of
    the element just popped, letting event loops retrieve it without a
    second cursor advance. *)

val next_time : 'a t -> int
(** Time of the minimum element without removing it or moving the cursor,
    or [max_int] when empty.  Allocates nothing. *)

val overflow_pushes : 'a t -> int
(** Total pushes routed to the overflow heap since creation — a cheap
    telemetry hook for checking that the horizon fits the workload. *)
