(** Named counters and scalar statistics.

    Every simulated component owns a [Stats.t] scoped with a prefix; the
    system run collects them into report rows.

    Two access paths share one counter store:
    - the string-keyed API ([incr]/[add]/[get]/...) resolves names through
      a hashtable — fine for cold paths, tests, and reports;
    - hot paths intern a {!key} once at component creation and bump an
      [int array] slot directly, with no hashing or allocation per event.

    A [t] is single-domain state, like every other simulated component. *)

type t

val create : unit -> t

(** {1 Interned keys — the hot path} *)

type key
(** Index of a counter slot, valid only for the [t] that interned it. *)

val key : t -> string -> key
(** Resolve (interning if absent) the slot for a name.  Interning alone
    does not make the counter visible in [names]/[to_assoc]; only a write
    does, matching the lazy-creation semantics of the string API. *)

val bump : t -> key -> unit
(** Add 1. O(1), no allocation. *)

val bump_by : t -> key -> int -> unit
val max_key : t -> key -> int -> unit

(** {1 String-keyed API} *)

val incr : t -> string -> unit
(** Add 1 to a named counter, creating it at 0 if absent. *)

val add : t -> string -> int -> unit
val get : t -> string -> int
(** 0 when the counter was never touched. *)

val set_max : t -> string -> int -> unit
(** Keep the running maximum under the given name.  The counter is tagged
    as a maximum, so {!merge_into} combines it with max rather than
    addition. *)

val names : t -> string list
(** Sorted list of counters that have been touched. *)

val merge_into : dst:t -> prefix:string -> t -> unit
(** Fold [src] counters into [dst] with [prefix ^ "."] prepended.
    Additive counters add; {!set_max}/{!max_key} counters take the
    maximum (summing high-water marks would fabricate an occupancy that
    never occurred).  Each merged key is built with a single allocation
    via a shared buffer. *)

val get_prefixed : t -> prefix:string -> string -> int
(** [get_prefixed t ~prefix name] = [get t (prefix ^ "." ^ name)] without
    the intermediate concatenations. *)

val to_assoc : t -> (string * int) list
