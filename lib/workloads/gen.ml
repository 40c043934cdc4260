module Addr = Spandex_proto.Addr
module Amo = Spandex_proto.Amo
module Linedata = Spandex_proto.Linedata
module Ops = Spandex_device.Ops
module Workload = Spandex_system.Workload

type region = { base : int; words : int }
type alloc = { mutable next_line : int }

let allocator () = { next_line = 0 }

let region a ~words =
  let lines = (words + Addr.words_per_line - 1) / Addr.words_per_line in
  let base = a.next_line * Addr.words_per_line in
  a.next_line <- a.next_line + lines;
  { base; words }

let addr r i =
  if i < 0 || i >= r.words then invalid_arg "Gen.addr: out of region";
  Addr.line_of_word_index (r.base + i)

let size r = r.words

type mem = (int, int) Hashtbl.t

let mem () : mem = Hashtbl.create 4096
let key (a : Addr.t) = (a.Addr.line * Addr.words_per_line) + a.Addr.word

let read m a =
  match Hashtbl.find_opt m (key a) with
  | Some v -> v
  | None -> Linedata.init_word ~line:a.Addr.line ~word:a.Addr.word

let write m a v = Hashtbl.replace m (key a) v

let add m a delta =
  let v = read m a + delta in
  write m a v;
  v

type builder = { mutable rev_ops : Ops.t list; mutable count : int }

let builder () = { rev_ops = []; count = 0 }

let emit b op =
  b.rev_ops <- op :: b.rev_ops;
  b.count <- b.count + 1

let emit_store b m a v =
  write m a v;
  emit b (Ops.Store (a, v))

let emit_check b m a = emit b (Ops.Check (a, read m a))

let emit_rmw_add b m a delta =
  ignore (add m a delta);
  emit b (Ops.Rmw (a, Amo.Add delta))

let ops b = Array.of_list (List.rev b.rev_ops)

type t = {
  cpus : builder array;
  gpus : builder array array;
  mutable barriers : int list;
}

let create ~cpus ~cus ~warps =
  {
    cpus = Array.init cpus (fun _ -> builder ());
    gpus = Array.init cus (fun _ -> Array.init warps (fun _ -> builder ()));
    barriers = [];
  }

let alloc_barrier t ~parties =
  let id = List.length t.barriers in
  t.barriers <- parties :: t.barriers;
  id

let global_barrier t =
  let parties =
    Array.length t.cpus
    + Array.fold_left (fun acc cu -> acc + Array.length cu) 0 t.gpus
  in
  let id = alloc_barrier t ~parties in
  Array.iter (fun b -> emit b (Ops.Barrier id)) t.cpus;
  Array.iter (fun cu -> Array.iter (fun b -> emit b (Ops.Barrier id)) cu) t.gpus

let barrier_among t ~members =
  let id = alloc_barrier t ~parties:(List.length members) in
  List.iter
    (fun m ->
      let b =
        match m with
        | `Cpu i -> t.cpus.(i)
        | `Warp (cu, w) -> t.gpus.(cu).(w)
      in
      emit b (Ops.Barrier id))
    members

let finish ?(region_of = fun _ -> 0) t ~name =
  {
    Workload.name;
    cpu_programs = Array.map ops t.cpus;
    gpu_programs = Array.map (fun cu -> Array.map ops cu) t.gpus;
    barrier_parties = Array.of_list (List.rev t.barriers);
    region_of;
  }
