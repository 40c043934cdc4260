(** Set-associative tag array with LRU replacement, generic over the
    per-line metadata a protocol attaches.  Every cache the simulator
    models uses it: the CPU and GPU L1s, the GPU L2, and the banked LLC
    and MESI directory.

    Line [l] lives in set [l mod sets].  Each set is an int array of
    [ways] (line tag, LRU stamp) pairs, with tag -1 for a free way, and an
    array of [ways] metadata slots.  Both are allocated on the set's first
    insert, and a lookup is a scan of at most [ways] ints.  Stamps come
    from one monotone tick per frame; the LRU line is the one with the
    smallest stamp.  A freed way keeps its last metadata until it is
    reused, so a frame holds at most [sets * ways] metadata records.

    Banking: when [banks] divides [sets], set [s] holds only lines
    ≡ [s] (mod [banks]), so bank [b] owns the sets [b], [b + banks], ...
    and its conflict sets and LRU order are the unbanked ones.  The LLC
    and the MESI directory check that divisibility when they are created.

    Folds visit lines in set order, then way order, which is neither
    insertion nor LRU order.  The LLC's and directory's pending sources
    fold their bank, so their items in [Engine.live_work] come in set
    order.

    Allocation is always at line granularity (paper §III-B); protocols that
    track word-granularity state keep it inside their metadata. *)

type 'a t

val create : sets:int -> ways:int -> 'a t

val size_lines : bytes:int -> ways:int -> int * int
(** [size_lines ~bytes ~ways] is [(sets, ways)] for a cache of [bytes]
    capacity with 64-byte lines. *)

val find : 'a t -> line:int -> 'a option
(** Lookup without touching LRU state. *)

val find_exn : 'a t -> line:int -> 'a
(** Allocation-free {!find}; raises [Not_found] when absent.  For hot
    paths — pair with a [match ... with exception Not_found] handler. *)

val touch : 'a t -> line:int -> unit
(** Mark [line] most recently used. *)

val remove : 'a t -> line:int -> unit

type 'a insert_result =
  | Inserted
  | Evicted of int * 'a  (** victim line and its metadata; already removed. *)
  | No_room  (** every way of the set is pinned; caller must retry later. *)

val insert :
  'a t -> line:int -> 'a -> can_evict:(line:int -> 'a -> bool) -> 'a insert_result
(** Insert [line] (which must not be present, and must be [≥ 0]).  A free
    way is used if the set has one; otherwise the least recently used line
    satisfying [can_evict] is evicted. *)

val lru_matching :
  'a t -> set_line:int -> f:(line:int -> 'a -> bool) -> (int * 'a) option
(** Least-recently-used line in the set [set_line] maps to that satisfies
    [f]; used to pick purge victims deterministically. *)

val fold : 'a t -> init:'b -> f:('b -> line:int -> 'a -> 'b) -> 'b

val fold_bank :
  'a t -> banks:int -> int -> init:'b -> f:('b -> line:int -> 'a -> 'b) -> 'b
(** [fold_bank t ~banks b] folds over the resident lines ≡ [b]
    (mod [banks]); [banks] must divide [sets]. *)

val count : 'a t -> int
val count_bank : 'a t -> banks:int -> int -> int
