(** Deterministic pseudo-random number generation.

    All randomness in the simulator and in workload generation flows through
    this splitmix64 generator so that every experiment is reproducible from
    a seed.  The global [Random] module is never used. *)

type t

val create : seed:int -> t
(** [create ~seed] makes an independent generator. Two generators created
    with the same seed produce identical streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
