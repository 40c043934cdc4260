(** Unified execution-context model for CPUs and GPU compute units.

    A core owns one or more contexts, each running a {!Program.t} in order.
    One context issues per issue slot ([clock] engine cycles apart),
    rotating round-robin among ready contexts — with a single context this
    is an in-order CPU core with blocking loads; with many it is a GPU CU
    whose warp interleaving hides memory latency (paper §II-B: GPUs are
    "more tolerant to memory latency because of their highly multi-threaded
    and parallel execution").

    Memory operations go through the protocol-specific {!Port.t}.  A
    [Barrier] op performs Release, arrives at the barrier, and performs
    Acquire after wake-up (SC-for-DRF, §III-E). *)

type t

val create :
  Spandex_sim.Engine.t ->
  port:Port.t ->
  barriers:Barrier.t array ->
  check_log:Check_log.t ->
  core_id:int ->
  clock:int ->
  programs:Program.t array ->
  t
(** [clock] is engine cycles per issue slot (1 for a 2 GHz CPU core, 3 for
    a 700 MHz GPU CU with the LLC clock at 2 GHz).  [programs] gives one
    program per context. *)

val start : t -> unit
(** Arm the issue loop; contexts begin executing at the current cycle.
    Registers the core's engine pending source, which reports every
    unfinished context (["core.<id>"]: ready at / waiting on op N). *)

val finished : t -> bool
(** Every context ran to completion — exactly when the core's pending
    source reports nothing.  An int compare, so [Run] polls it before
    {!Spandex_sim.Engine.live_work}, whose core items are formatted. *)

val stats : t -> Spandex_util.Stats.t
val core_id : t -> int

val fingerprint : t -> Spandex_util.Fingerprint.t -> unit
(** Feed architectural core state (per-context pc and run state, issue
    round-robin cursor) into a fingerprint accumulator. *)
