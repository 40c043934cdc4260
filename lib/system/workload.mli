(** A runnable workload: one program per CPU core and per GPU warp, plus the
    barrier table the programs reference.  Produced by the generators in
    [spandex_workloads]. *)

type t = {
  name : string;
  cpu_programs : Spandex_device.Program.t array;
      (** indexed by CPU core; may be shorter than the configured core
          count (extra cores idle). *)
  gpu_programs : Spandex_device.Program.t array array;
      (** indexed by CU, then warp. *)
  barrier_parties : int array;
      (** parties for each barrier id used in the programs. *)
  region_of : int -> int;
      (** software region classification by line, consumed by
          region-selective acquires (paper II-C); [fun _ -> 0] when the
          workload does not use regions. *)
}

val total_ops : t -> int

val validate : t -> unit
(** Checks every barrier id is in range; raises [Invalid_argument].
    Allocates nothing per op. *)
