module Ops = Spandex_device.Ops

type geometry = { cpus : int; cus : int; warps : int }

let scaled scale n = max 1 (int_of_float (float_of_int n *. scale))

(* Distribute [0, n) across [parts] as contiguous chunks. *)
let chunk ~parts ~n i =
  let base = n / parts and extra = n mod parts in
  let lo = (i * base) + min i extra in
  let hi = lo + base + (if i < extra then 1 else 0) in
  (lo, hi)

let warp_list g =
  List.concat_map
    (fun cu -> List.init g.warps (fun w -> (cu, w)))
    (List.init g.cus Fun.id)

(* --- Indirection ------------------------------------------------------------ *)

(* CPU threads transpose A into B; GPU warps transpose B back into A;
   repeat.  Reads are strided down columns (one line per access) so there
   is no spatial or temporal L1 reuse; all communication is CPU<->GPU. *)
let indirection ?(scale = 1.0) g =
  (* The matrices must overflow every L1 (paper: "tile size is selected to
     ensure data is not reused from the L1 cache"), so GPU-written data is
     evicted and written back before the CPU touches it. *)
  let n = scaled scale 144 in
  let iters = 2 in
  let alloc = Gen.allocator () in
  let a = Gen.region alloc ~words:(n * n) in
  let b = Gen.region alloc ~words:(n * n) in
  let mem = Gen.mem () in
  let t = Gen.create ~cpus:g.cpus ~cus:g.cus ~warps:g.warps in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let stride =
    let rec find s = if gcd s n = 1 then s else find (s + 2) in
    find 7
  in
  let transpose builder ~src ~dst ~rows =
    let lo, hi = rows in
    for c = 0 to n - 1 do
      (* Column-major reads: consecutive accesses touch different lines. *)
      let c = c * stride mod n in
      for r = lo to hi - 1 do
        let v = Gen.read mem (Gen.addr src ((r * n) + c)) in
        Gen.emit_check builder mem (Gen.addr src ((r * n) + c));
        Gen.emit_store builder mem (Gen.addr dst ((c * n) + r)) v
      done
    done
  in
  let warps = warp_list g in
  for _iter = 1 to iters do
    (* CPU phase: A -> B. *)
    Array.iteri
      (fun i builder -> transpose builder ~src:a ~dst:b ~rows:(chunk ~parts:g.cpus ~n i))
      t.Gen.cpus;
    Gen.global_barrier t;
    (* GPU phase: B -> A. *)
    List.iteri
      (fun i (cu, w) ->
        transpose t.Gen.gpus.(cu).(w) ~src:b ~dst:a
          ~rows:(chunk ~parts:(List.length warps) ~n i))
      warps;
    Gen.global_barrier t
  done;
  Gen.finish t ~name:"indirection"

(* --- ReuseO ------------------------------------------------------------------ *)

(* Dense per-thread tiles written every iteration and re-read the next one
   (ownership exploits this reuse); sparse cross-device reads of the other
   side's tiles. *)
let reuseo ?(scale = 1.0) g =
  (* Tiles are sized to fit in the L1 even with four warps sharing one
     (paper: "tiles are sized to fit in the cache"). *)
  let tile = scaled scale 192 in
  let sparse = scaled scale 24 in
  let iters = 3 in
  let alloc = Gen.allocator () in
  let warps = warp_list g in
  let nw = List.length warps in
  let cpu_tiles = Array.init g.cpus (fun _ -> Gen.region alloc ~words:tile) in
  let gpu_tiles = Array.init nw (fun _ -> Gen.region alloc ~words:tile) in
  let mem = Gen.mem () in
  let t = Gen.create ~cpus:g.cpus ~cus:g.cus ~warps:g.warps in
  let rng = Spandex_util.Rng.create ~seed:0xBEEF in
  for iter = 1 to iters do
    (* Dense read-modify-write of the own tile. *)
    Array.iteri
      (fun i builder ->
        let r = cpu_tiles.(i) in
        for j = 0 to tile - 1 do
          Gen.emit_check builder mem (Gen.addr r j);
          Gen.emit_store builder mem (Gen.addr r j) ((iter * 100000) + (i * 1000) + j)
        done)
      t.Gen.cpus;
    List.iteri
      (fun i (cu, w) ->
        let builder = t.Gen.gpus.(cu).(w) in
        let r = gpu_tiles.(i) in
        for j = 0 to tile - 1 do
          Gen.emit_check builder mem (Gen.addr r j);
          Gen.emit_store builder mem (Gen.addr r j)
            ((iter * 100000) + (7000 + (i * 1000)) + j)
        done)
      warps;
    Gen.global_barrier t;
    (* Sparse reads of the remote side's freshly written tiles. *)
    if nw > 0 then
      Array.iter
        (fun builder ->
          for _ = 1 to sparse do
            let tgt = Spandex_util.Rng.int rng nw in
            let j = Spandex_util.Rng.int rng tile in
            Gen.emit_check builder mem (Gen.addr gpu_tiles.(tgt) j)
          done)
        t.Gen.cpus;
    if g.cpus > 0 then
      List.iter
        (fun (cu, w) ->
          let builder = t.Gen.gpus.(cu).(w) in
          for _ = 1 to sparse do
            let tgt = Spandex_util.Rng.int rng g.cpus in
            let j = Spandex_util.Rng.int rng tile in
            Gen.emit_check builder mem (Gen.addr cpu_tiles.(tgt) j)
          done)
        warps;
    Gen.global_barrier t
  done;
  Gen.finish t ~name:"reuseo"

(* --- ReuseS ------------------------------------------------------------------ *)

(* A shared matrix densely read by everyone each iteration, sparsely
   written by a rotating single writer in between.  Only Shared state can
   carry the dense read data across iterations. *)
let reuses ?(scale = 1.0) g =
  (* The shared matrix fits in an L1, so Shared state can carry the dense
     read data across iterations; CPU and GPU read in alternating phases
     ("take turns"), putting the CPU's reuse on the critical path. *)
  let words = scaled scale 768 in
  let sparse = scaled scale 16 in
  let iters = 3 in
  let alloc = Gen.allocator () in
  let m = Gen.region alloc ~words in
  let mem = Gen.mem () in
  let t = Gen.create ~cpus:g.cpus ~cus:g.cus ~warps:g.warps in
  let warps = warp_list g in
  let rng = Spandex_util.Rng.create ~seed:0xCAFE in
  for iter = 1 to iters do
    (* CPU turn: dense reads. *)
    Array.iter
      (fun builder ->
        for j = 0 to words - 1 do
          Gen.emit_check builder mem (Gen.addr m j)
        done)
      t.Gen.cpus;
    Gen.global_barrier t;
    (* GPU turn: dense reads. *)
    List.iter
      (fun (cu, w) ->
        let builder = t.Gen.gpus.(cu).(w) in
        for j = 0 to words - 1 do
          Gen.emit_check builder mem (Gen.addr m j)
        done)
      warps;
    Gen.global_barrier t;
    (* One rotating writer sparsely updates. *)
    let writer_idx = iter mod (g.cpus + List.length warps) in
    let builder =
      if writer_idx < g.cpus then t.Gen.cpus.(writer_idx)
      else
        let cu, w = List.nth warps (writer_idx - g.cpus) in
        t.Gen.gpus.(cu).(w)
    in
    for _ = 1 to sparse do
      let j = Spandex_util.Rng.int rng words in
      Gen.emit_store builder mem (Gen.addr m j) ((iter * 1_000_000) + j)
    done;
    Gen.global_barrier t
  done;
  Gen.finish t ~name:"reuses"

(* --- Region reuse (extension, paper II-C) ------------------------------------ *)

let region_reuse ?(scale = 1.0) ?(use_regions = true) g =
  (* Each party's read-only block fits its L1 even with four warps sharing
     one (4 x 192 words = 3KB of a 4KB L1), so the only thing standing
     between it and full reuse is the flash self-invalidation at each
     barrier — exactly what regions remove. *)
  let private_words = scaled scale 192 in
  let shared_words = scaled scale 32 in
  let iters = 4 in
  let alloc = Gen.allocator () in
  let warps = warp_list g in
  let parties = g.cpus + List.length warps in
  let privates = Array.init parties (fun _ -> Gen.region alloc ~words:private_words) in
  let shared = Gen.region alloc ~words:shared_words in
  let shared_lo = (Gen.addr shared 0).Spandex_proto.Addr.line in
  let shared_hi = (Gen.addr shared (shared_words - 1)).Spandex_proto.Addr.line in
  (* Region 1 = the communicated buffer; region 0 = everything else. *)
  let region_of line = if line >= shared_lo && line <= shared_hi then 1 else 0 in
  let mem = Gen.mem () in
  let t = Gen.create ~cpus:g.cpus ~cus:g.cus ~warps:g.warps in
  let builders =
    Array.of_list
      (Array.to_list t.Gen.cpus
      @ List.map (fun (cu, w) -> t.Gen.gpus.(cu).(w)) warps)
  in
  let barrier t =
    (* A barrier among these builders only, allocated by hand so it can
       be region-selective: one synthetic op per builder. *)
    let id = List.length t.Gen.barriers in
    t.Gen.barriers <- parties :: t.Gen.barriers;
    Array.iter
      (fun b ->
        Gen.emit b
          (if use_regions then Ops.Barrier_region (id, 1) else Ops.Barrier id))
      builders
  in
  for iter = 1 to iters do
    (* One rotating producer refreshes the shared buffer... *)
    let producer = builders.((iter - 1) mod parties) in
    for j = 0 to shared_words - 1 do
      Gen.emit_store producer mem (Gen.addr shared j) ((iter * 1000) + j)
    done;
    barrier t;
    (* ...then everyone reads it plus their private read-only block, which
       only survives the barrier when the acquire is region-selective. *)
    Array.iteri
      (fun p builder ->
        for j = 0 to shared_words - 1 do
          Gen.emit_check builder mem (Gen.addr shared j)
        done;
        for j = 0 to private_words - 1 do
          Gen.emit_check builder mem (Gen.addr privates.(p) j)
        done)
      builders;
    barrier t
  done;
  Gen.finish ~region_of t ~name:(if use_regions then "regions" else "noregions")

let all =
  [ ("indirection", indirection); ("reuseo", reuseo); ("reuses", reuses) ]
