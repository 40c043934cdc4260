(** Deterministic pseudo-random number generation.

    All randomness in the simulator and in workload generation flows through
    this splitmix64 generator so that every experiment is reproducible from
    a seed.  The global [Random] module is never used. *)

type t

val create : seed:int -> t
(** [create ~seed] makes an independent generator. Two generators created
    with the same seed produce identical streams. *)

val split : t -> t
(** [split t] derives a new independent generator from [t], advancing [t].
    Used to give each thread/warp its own stream. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> lo:int -> hi:int -> int
(** [int_in t ~lo ~hi] is uniform in [\[lo, hi\]] inclusive. *)

val bool : t -> bool

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val geometric : t -> p:float -> int
(** [geometric t ~p] counts Bernoulli(p) failures before the first success;
    used for reuse-distance and burst-length generation. *)
