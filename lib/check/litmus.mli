(** Litmus workloads for the model checker.

    Small data-race-free programs (2-3 devices, 1-2 lines) whose final
    values are schedule-independent, so the embedded [Check] ops are a
    sound data-value oracle under every delivery interleaving.  Each case
    targets one coherence mechanism: message passing across lines,
    same-line word conflicts, atomics, ownership migration, and read
    sharing. *)

type case = {
  case_name : string;
  case_descr : string;
  case_lines : int list;  (** cache-line footprint, for invariant scans. *)
  min_devices : int;
  programs : devices:int -> Spandex_device.Ops.t array array * int array;
      (** one program per device plus the barrier-parties table. *)
}

val mp : case
val ww : case
val own : case
val all : case list

val by_name : string -> case
(** Case-insensitive lookup; raises [Not_found]. *)

val workload : case -> cpus:int -> gpus:int -> Spandex_system.Workload.t
(** Distribute the case's per-device programs over [cpus] CPU cores and
    then [gpus] single-warp GPU CUs.  Raises [Invalid_argument] when
    [cpus + gpus < min_devices]. *)

val params : cpus:int -> gpus:int -> faults:bool -> Spandex_system.Params.t
(** {!Spandex_system.Params.small} specialised for exhaustive search:
    matching core counts, a single LLC bank, no watchdog, no tracing, and
    — when [faults] — a zero-probability fault plan whose only effect is
    arming retry timers and replay caches so checker-injected drops are
    recoverable. *)
