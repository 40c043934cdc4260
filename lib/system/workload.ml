module Program = Spandex_device.Program

type t = {
  name : string;
  cpu_programs : Program.t array;
  gpu_programs : Program.t array array;
  barrier_parties : int array;
  region_of : int -> int;
}

let total_ops t =
  let cpu =
    Array.fold_left (fun acc p -> acc + Program.length p) 0 t.cpu_programs
  in
  Array.fold_left
    (fun acc cu -> Array.fold_left (fun acc p -> acc + Program.length p) acc cu)
    cpu t.gpu_programs

(* A loop over the code words: [Run.build] validates every cell, so this
   must not decode or allocate per op. *)
let check_program t (p : Program.t) =
  let code = p.Program.code in
  for i = 0 to Array.length code - 1 do
    match Program.kind code.(i) with
    | Program.Barrier | Program.Barrier_region ->
      let b = Program.operand code.(i) in
      if b >= Array.length t.barrier_parties then
        invalid_arg
          (Printf.sprintf "workload %s: barrier id %d out of range" t.name b)
    | _ -> ()
  done

let validate t =
  Array.iter (check_program t) t.cpu_programs;
  Array.iter (Array.iter (check_program t)) t.gpu_programs
