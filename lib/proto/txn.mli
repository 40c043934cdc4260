(** Transaction identifiers, unique within a simulation.

    Responses echo the transaction id of the request they answer; forwarded
    requests preserve the original id so the remote owner's direct response
    reaches the right MSHR entry.  The counter is domain-local state: every
    simulation resets it on entry and runs on a single domain, so ids are
    deterministic per simulation and independent simulations can run on
    separate domains in parallel (see [Spandex_system.Sweep]). *)

val fresh : unit -> int

val reset : unit -> unit
(** Reset the calling domain's counter (between independent simulations,
    for reproducibility of logged ids; correctness never depends on it). *)

type allocator
(** A per-device id source: ids are [device_id + k * 4096], unique across
    devices (ids are small dense ints < 4096) and — unlike {!fresh} —
    independent of the global event interleave: a device's ids depend
    only on how many it has drawn. *)

val allocator : id:int -> allocator
(** Raises [Invalid_argument] when [id] is outside [0, 4096). *)

val next : allocator -> int
