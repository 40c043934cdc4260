(** Parallel sweep runner: fan independent simulations out across domains.

    [Run.simulate] owns all its state per call (engine, network, caches,
    stats) and the transaction counter is domain-local, so independent
    (config x workload x seed) jobs parallelize without coordination.
    Results are returned in submission order and are bit-identical to a
    sequential run of the same jobs — cycles, flits, traffic and stats do
    not depend on [jobs] (asserted by [test/test_sweep.ml]).

    Each worker domain runs with its own tuned GC parameters (a larger
    minor heap and raised space_overhead, restored on exit) so one
    domain's collections do not pace another's, and claims jobs
    longest-expected-first so a heavy cell started last cannot serialize
    the tail of the sweep. *)

val default_jobs : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)]: leave one core for
    the orchestrating domain's bookkeeping. *)

val map : ?jobs:int -> ?weights:float array -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] applies [f] to every item using [jobs] worker
    domains (the calling domain is one of them), returning results in
    input order.  [jobs] defaults to {!default_jobs}; [jobs <= 1] runs
    sequentially in the calling domain.  [weights.(i)] is the expected
    relative cost of item [i]; when given, workers claim heavier items
    first (results are unaffected).  If any application raises, the first
    failure in submission order is re-raised after all workers have
    drained.  [f] must not touch domain-unsafe shared state; [Run.simulate]
    with per-job params/config/workload qualifies. *)

type job = {
  label : string;
      (** the cell's name in {!Report.simulate_jobs}'s output: the label
          a study prints and the key its predicates look cells up by. *)
  params : Params.t;
  config : Config.t;
  workload : Workload.t;
}

val simulate_all : ?jobs:int -> job list -> Run.result list
(** Run every job through [Run.simulate], fanned out across domains;
    results in submission order.  Jobs are claimed longest-first by
    expected op count.  Workloads may be shared between jobs — simulation
    reads but never mutates them. *)
