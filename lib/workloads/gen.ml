module Addr = Spandex_proto.Addr
module Amo = Spandex_proto.Amo
module Linedata = Spandex_proto.Linedata
module Program = Spandex_device.Program
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

type mem = (int, int) Hashtbl.t

let mem () : mem = Hashtbl.create 4096

let read m a =
  match Hashtbl.find_opt m (Program.flat a) with
  | Some v -> v
  | None -> Linedata.init_word ~line:a.Addr.line ~word:a.Addr.word

let write m a v = Hashtbl.replace m (Program.flat a) v

let add m a delta =
  let v = read m a + delta in
  write m a v;
  v

(* The tables every program of one workload shares.  Addresses are indexed
   by flat word index, so the address table is [0, top) and needs no
   lookup; AMOs are interned by first use. *)
type tables = {
  mutable top : int;
  amo_index : Amo.t -> int;
  amos : unit -> Amo.t array;
}

type builder = { prog : Program.builder; tables : tables }

let addr_index tables a =
  let i = Program.flat a in
  if i >= tables.top then tables.top <- i + 1;
  i

let emit b op =
  Program.push_op b.prog ~addr:(addr_index b.tables) ~amo:b.tables.amo_index op

let emit_at b kind a x = Program.push b.prog kind (addr_index b.tables a) x

let emit_store b m a v =
  write m a v;
  emit_at b Program.Store a v

let emit_check b m a = emit_at b Program.Check a (read m a)

let emit_rmw_add b m a delta =
  ignore (add m a delta);
  emit_at b Program.Rmw a (b.tables.amo_index (Amo.Add delta))

type t = {
  cpus : builder array;
  gpus : builder array array;
  mutable barriers : int list;
  tables : tables;
}

let create ~cpus ~cus ~warps =
  let amo_index, amos = Program.interner Fun.id in
  let tables = { top = 0; amo_index; amos } in
  let builder _ = { prog = Program.builder (); tables } in
  {
    cpus = Array.init cpus builder;
    gpus = Array.init cus (fun _ -> Array.init warps builder);
    barriers = [];
    tables;
  }

let alloc_barrier t ~parties =
  let id = List.length t.barriers in
  t.barriers <- parties :: t.barriers;
  id

let emit_barrier id b = Program.push b.prog Program.Barrier id 0

let global_barrier t =
  let parties =
    Array.length t.cpus
    + Array.fold_left (fun acc cu -> acc + Array.length cu) 0 t.gpus
  in
  let id = alloc_barrier t ~parties in
  Array.iter (emit_barrier id) t.cpus;
  Array.iter (Array.iter (emit_barrier id)) t.gpus

let finish ?(region_of = fun _ -> 0) t ~name =
  let addrs = Array.init t.tables.top Addr.line_of_word_index in
  let amos = t.tables.amos () in
  let program b = Program.make b.prog ~addrs ~amos in
  {
    Workload.name;
    cpu_programs = Array.map program t.cpus;
    gpu_programs = Array.map (Array.map program) t.gpus;
    barrier_parties = Array.of_list (List.rev t.barriers);
    region_of;
  }
