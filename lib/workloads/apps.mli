(** The six collaborative CPU-GPU applications (paper §IV-B2, Table VII),
    reproduced as communication-pattern generators.

    Each generator emits the memory-access and synchronization pattern the
    paper's evaluation attributes the benchmark's behaviour to; real kernel
    arithmetic is elided (it does not touch the memory system) and dynamic
    work distribution is replaced by an equivalent static schedule with the
    same atomic queue traffic (DESIGN.md §1).  DRF reads are [Check] ops. *)

type geometry = Microbench.geometry = { cpus : int; cus : int; warps : int }

val all : (string * (?scale:float -> geometry -> Spandex_system.Workload.t)) list
(** The six generators by name: bc, pr, hsti, trns, rsct and tqh. *)

val executors : geometry -> Gen.t -> Gen.builder array
(** All execution contexts (CPU threads, then warps in CU order) of a
    workload under construction; shared by generators. *)
