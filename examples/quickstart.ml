(* Quickstart: build a workload, run it on a Spandex system, read results.

     dune exec examples/quickstart.exe

   A CPU thread produces an array; after a barrier, a GPU warp sums it and
   publishes the total; the CPU verifies.  The same program runs unchanged
   on all six cache configurations of the paper's Table V. *)

module Addr = Spandex_proto.Addr
module Ops = Spandex_device.Ops
module Program = Spandex_device.Program
module Config = Spandex_system.Config
module Run = Spandex_system.Run
module Workload = Spandex_system.Workload

let () =
  let n = 64 in
  let data i = Addr.line_of_word_index i in
  let total_addr = Addr.line_of_word_index 1000 in
  let expected_total = (n * (n - 1) / 2) + (n * 7) in
  (* CPU: produce, wait, verify the GPU's published total. *)
  let cpu_program =
    Array.concat
      [
        Array.init n (fun i -> Ops.Store (data i, i + 7));
        [| Ops.Barrier 0; Ops.Barrier 1; Ops.Check (total_addr, expected_total) |];
      ]
  in
  (* GPU warp: wait, read + sum (as Checks, so the run self-verifies),
     publish. *)
  let gpu_program =
    Array.concat
      [
        [| Ops.Barrier 0 |];
        Array.init n (fun i -> Ops.Check (data i, i + 7));
        [| Ops.Store (total_addr, expected_total); Ops.Barrier 1 |];
      ]
  in
  let workload =
    {
      Workload.name = "quickstart";
      cpu_programs = [| Program.of_ops cpu_program |];
      gpu_programs = [| [| Program.of_ops gpu_program |] |];
      barrier_parties = [| 2; 2 |];
      region_of = (fun _ -> 0);
    }
  in
  Printf.printf "%-5s %10s %10s %8s\n" "cfg" "cycles" "flits" "checks";
  List.iter
    (fun config ->
      let r = Run.simulate ~config workload in
      Run.assert_clean r;
      Printf.printf "%-5s %10d %10d %8d\n" config.Config.name r.Run.cycles
        r.Run.total_flits r.Run.checks)
    Config.all;
  print_endline "all configurations produced and verified the same data."
