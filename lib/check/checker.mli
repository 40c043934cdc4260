(** Exhaustive-interleaving model checker over the deterministic engine.

    Stateless search in the CHESS style: every schedule is re-executed
    from a freshly built system, with the network's delivery hook holding
    each in-flight message until the explorer chooses which one delivers
    next.  Between choices the engine runs to quiescence ([stabilize]),
    so choice points are exactly the states where held messages exist.
    Optional fault choice points additionally drop or duplicate any
    {!Spandex_net.Fault.faultable} held message, bounded by a budget.

    Reduction: a canonical state-fingerprint cache (exact string match,
    no hash collisions) prunes states reached along multiple equivalent
    orders, and DPOR-style sleep sets skip sibling interleavings of
    independent actions (different destination device and different
    cache line).  Sleep entries are content-addressed so they remain
    valid across paths with different pool sequence numbering; a cache
    hit only prunes when the earlier visit explored with a sleep set no
    larger than the current one.

    The invariant oracle checks, at every choice point, single-writer /
    multiple-reader (at most one L1 owns any word) and the data-value
    oracle embedded in the DRF litmus programs, and at termination,
    deadlock-freedom (system must report finished once the queue and
    pool drain) and flat-LLC ownership-registration agreement. *)

type bug = Skip_inv_ack | Ack_no_inv

val bug_name : bug -> string
val bug_of_name : string -> bug
val all_bugs : bug list

type violation =
  | Deadlock of Spandex_sim.Engine.pending_work list
      (** terminal state not finished: the engine's live work. *)
  | Swmr of { line : int; word : int; owners : string list }
  | Llc_mismatch of string
  | Data_mismatch of string
  | Crash of string

val violation_descr : violation -> string

type outcome = {
  o_states : int;
  o_executions : int;
  o_transitions : int;
  o_violation : (violation * (Schedule.action * string) list) option;
  o_truncated : bool;
}

val check :
  ?max_states:int ->
  ?budget_secs:float ->
  ?fault_budget:int ->
  ?reduce:bool ->
  ?seed_bug:bug ->
  ?llc_banks:int ->
  case:Litmus.case ->
  config:Spandex_system.Config.t ->
  cpus:int ->
  gpus:int ->
  faults:bool ->
  unit ->
  outcome
(** Explore every delivery interleaving of the case under the config.
    [faults] adds drop/duplicate choice points (at most [fault_budget]
    per execution, default 1).  [reduce] (default true) minimizes any
    counterexample to the shortest violating prefix plus a deterministic
    oldest-first completion.  [seed_bug] wires a deliberate protocol bug
    into every L1 endpoint, for validating the oracle end to end.
    [llc_banks] (default 1) explores with an address-interleaved banked
    LLC — banking must be invisible to the protocol, so every case must
    reach the same verdict for any bank count. *)

val check_and_report :
  ?max_states:int ->
  ?budget_secs:float ->
  ?fault_budget:int ->
  ?reduce:bool ->
  ?seed_bug:bug ->
  ?llc_banks:int ->
  case:Litmus.case ->
  config:Spandex_system.Config.t ->
  cpus:int ->
  gpus:int ->
  faults:bool ->
  out:string ->
  unit ->
  outcome
(** {!check}, writing any counterexample to [out] as JSONL. *)

val replay :
  ?trace:Spandex_sim.Trace.spec ->
  path:string ->
  unit ->
  Schedule.header
  * violation option
  * (Schedule.action * string) list
  * Spandex_system.Run.system option
(** Re-execute a counterexample file deterministically.  Returns the
    parsed header, the violation observed at the end of the schedule (it
    should match the header's recorded violation), the actions taken with
    message summaries, and the final system (for trace export when
    [trace] was supplied). *)
