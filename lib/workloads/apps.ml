module Ops = Spandex_device.Ops
module Amo = Spandex_proto.Amo
module Rng = Spandex_util.Rng

type geometry = Microbench.geometry = { cpus : int; cus : int; warps : int }

let scaled scale n = max 1 (int_of_float (float_of_int n *. scale))
let chunk = Microbench.chunk

let warp_list (g : geometry) =
  List.concat_map
    (fun cu -> List.init g.warps (fun w -> (cu, w)))
    (List.init g.cus Fun.id)

(* All executors (CPU threads then warps), with their builders. *)
let executors (g : geometry) (t : Gen.t) =
  Array.of_list
    (List.init g.cpus (fun i -> t.Gen.cpus.(i))
    @ List.map (fun (cu, w) -> t.Gen.gpus.(cu).(w)) (warp_list g))

(* --- BC ---------------------------------------------------------------------- *)

(* Betweenness centrality: push-based; vertices partitioned CPU/GPU; every
   edge is an atomic update to the destination's centrality; the skewed
   graph gives atomics high temporal locality (data, fine-grain, flat). *)
let bc ?(scale = 1.0) g =
  let vertices = scaled scale 1536 in
  let iters = 2 in
  let alloc = Gen.allocator () in
  let centrality = Gen.region alloc ~words:vertices in
  let mem = Gen.mem () in
  let t = Gen.create ~cpus:g.cpus ~cus:g.cus ~warps:g.warps in
  let execs = executors g t in
  let parts = Array.length execs in
  (* Communities aligned with the vertex partitioning: each thread's atomic
     updates mostly target its own hub vertices (high temporal locality),
     with unbalanced per-partition work (paper §V-B). *)
  let graph =
    Graph.community ~seed:42 ~vertices ~parts ~avg_degree:6 ~local_frac:0.95
  in
  for iter = 1 to iters do
    Array.iteri
      (fun p builder ->
        let lo, hi = chunk ~parts ~n:vertices p in
        for v = lo to hi - 1 do
          (* Push updates to every neighbour; multiple threads may target
             the same (hub) vertex, hence atomics (paper §IV-B2). *)
          List.iter
            (fun d -> Gen.emit_rmw_add builder mem (Gen.addr centrality d) iter)
            graph.Graph.out_edges.(v)
        done)
      execs;
    Gen.global_barrier t
  done;
  (* Verification epilogue, spread across CPU threads and sampled so it
     stays off the measured critical path. *)
  Array.iteri
    (fun i checker ->
      let v = ref i in
      while !v < vertices do
        Gen.emit_check checker mem (Gen.addr centrality !v);
        v := !v + (4 * g.cpus)
      done)
    t.Gen.cpus;
  Gen.finish t ~name:"bc"

(* --- PR ---------------------------------------------------------------------- *)

(* PageRank: pull-based; plain reads of neighbours' ranks, one store per
   vertex per iteration; bound by memory throughput (data, coarse-grain,
   flat, moderate locality). *)
let pr ?(scale = 1.0) g =
  let vertices = scaled scale 1024 in
  let graph = Graph.mesh ~seed:43 ~vertices ~avg_degree:4 in
  let iters = 2 in
  let alloc = Gen.allocator () in
  let rank = [| Gen.region alloc ~words:vertices; Gen.region alloc ~words:vertices |] in
  let mem = Gen.mem () in
  let t = Gen.create ~cpus:g.cpus ~cus:g.cus ~warps:g.warps in
  let execs = executors g t in
  let parts = Array.length execs in
  for iter = 1 to iters do
    let prev = rank.((iter - 1) mod 2) and cur = rank.(iter mod 2) in
    Array.iteri
      (fun p builder ->
        let lo, hi = chunk ~parts ~n:vertices p in
        for v = lo to hi - 1 do
          (* Pull: read each neighbour's previous rank, write own rank. *)
          let acc = ref 0 in
          List.iter
            (fun d ->
              acc := !acc + Gen.read mem (Gen.addr prev d);
              Gen.emit_check builder mem (Gen.addr prev d))
            graph.Graph.out_edges.(v);
          Gen.emit_store builder mem (Gen.addr cur v) (!acc land 0x3FFFFFFF)
        done)
      execs;
    Gen.global_barrier t
  done;
  Gen.finish t ~name:"pr"

(* --- HSTI -------------------------------------------------------------------- *)

(* Input-partitioned histogram: atomic pops from one shared queue counter,
   streaming reads of the popped block, atomic updates of a compact bin
   array (high atomic spatial locality; low data locality). *)
let hsti ?(scale = 1.0) g =
  let block = 128 in
  let blocks = scaled scale 48 in
  let bins = 64 in
  let alloc = Gen.allocator () in
  let input = Gen.region alloc ~words:(block * blocks) in
  let hist = Gen.region alloc ~words:bins in
  let queue = Gen.region alloc ~words:1 in
  let mem = Gen.mem () in
  let t = Gen.create ~cpus:g.cpus ~cus:g.cus ~warps:g.warps in
  let execs = executors g t in
  let parts = Array.length execs in
  (* Blocks are popped from a shared queue: the pop's atomic traffic is
     real, the resulting assignment is modelled statically (round-robin) so
     programs stay branch-free (DESIGN.md §1). *)
  Array.iteri
    (fun p builder ->
      let rec go b =
        if b < blocks then begin
          Gen.emit_rmw_add builder mem (Gen.addr queue 0) 1;
          (* Image data is smooth: runs of neighbouring pixels fall into the
             same (or a nearby) bin, giving the atomic updates the high
             spatial locality Table VII reports for HSTI. *)
          let run = 24 in
          for j = 0 to block - 1 do
            let a = Gen.addr input ((b * block) + j) in
            let base = Gen.read mem (Gen.addr input ((b * block) + (j / run * run))) in
            Gen.emit_check builder mem a;
            Gen.emit_rmw_add builder mem
              (Gen.addr hist ((base + (j mod run / 8)) mod bins))
              1
          done;
          go (b + parts)
        end
      in
      go p)
    execs;
  Gen.global_barrier t;
  let checker = t.Gen.cpus.(0) in
  Gen.emit_check checker mem (Gen.addr queue 0);
  for b = 0 to bins - 1 do
    Gen.emit_check checker mem (Gen.addr hist b)
  done;
  Gen.finish t ~name:"hsti"

(* --- TRNS -------------------------------------------------------------------- *)

(* In-place transposition: per-block flag atomics (spread one per line —
   low spatial locality) guarding strided swap reads/writes. *)
let trns ?(scale = 1.0) g =
  let n = scaled scale 48 in
  let alloc = Gen.allocator () in
  let m = Gen.region alloc ~words:(n * n) in
  (* One flag per matrix block, one block per line: the guarding atomics
     have no spatial locality (paper §V-B: "TRNS atomics exhibit low
     spatial locality"). *)
  let nblocks = (n + 7) / 8 in
  let flags = Gen.region alloc ~words:(nblocks * nblocks * Spandex_proto.Addr.words_per_line) in
  let flag bi bj = Gen.addr flags (((bi * nblocks) + bj) * Spandex_proto.Addr.words_per_line) in
  let mem = Gen.mem () in
  let t = Gen.create ~cpus:g.cpus ~cus:g.cus ~warps:g.warps in
  let execs = executors g t in
  let parts = Array.length execs in
  (* All strictly-upper pairs, visited in a scattered order. *)
  let pairs =
    Array.of_list
      (List.concat_map
         (fun i -> List.filter_map (fun j -> if j > i then Some (i, j) else None)
                     (List.init n Fun.id))
         (List.init n Fun.id))
  in
  let rng = Rng.create ~seed:44 in
  Rng.shuffle rng pairs;
  Array.iteri
    (fun p builder ->
      let rec go k =
        if k < Array.length pairs then begin
          let i, j = pairs.(k) in
          let a_ij = Gen.addr m ((i * n) + j) and a_ji = Gen.addr m ((j * n) + i) in
          (* Lock both blocks (statically disjoint, so uncontended, but the
             atomic and fence traffic is that of fine-grain arbitration). *)
          Gen.emit builder (Ops.Rmw (flag (i / 8) (j / 8), Amo.Exch 1));
          Gen.emit builder (Ops.Rmw (flag (j / 8) (i / 8), Amo.Exch 1));
          Gen.emit builder Ops.Acquire;
          let vij = Gen.read mem a_ij and vji = Gen.read mem a_ji in
          Gen.emit_check builder mem a_ij;
          Gen.emit_check builder mem a_ji;
          Gen.emit_store builder mem a_ij vji;
          Gen.emit_store builder mem a_ji vij;
          Gen.emit builder Ops.Release;
          Gen.emit builder (Ops.Rmw (flag (i / 8) (j / 8), Amo.Exch 0));
          Gen.emit builder (Ops.Rmw (flag (j / 8) (i / 8), Amo.Exch 0));
          go (k + parts)
        end
      in
      go p)
    execs;
  Gen.finish t ~name:"trns"

(* --- RSCT -------------------------------------------------------------------- *)

(* Random sample consensus: task-partitioned; the CPU produces small
   parameter sets; every GPU core densely reads the same input window per
   task (hierarchical sharing, fine-grain sync). *)
let rsct ?(scale = 1.0) g =
  let window = scaled scale 192 in
  let tasks = 6 in
  let alloc = Gen.allocator () in
  let input = Gen.region alloc ~words:(window * tasks) in
  let params = Gen.region alloc ~words:(16 * tasks) in
  let mem = Gen.mem () in
  let t = Gen.create ~cpus:g.cpus ~cus:g.cus ~warps:g.warps in
  let warps = warp_list g in
  for task = 0 to tasks - 1 do
    (* The CPU produces a small parameter set... *)
    let producer = t.Gen.cpus.(task mod g.cpus) in
    for j = 0 to 15 do
      Gen.emit_store producer mem (Gen.addr params ((task * 16) + j))
        ((task * 1000) + j)
    done;
    (* ...and sparsely samples the input. *)
    for j = 0 to 7 do
      Gen.emit_check producer mem (Gen.addr input ((task * window) + (j * 17) mod window))
    done;
    Gen.global_barrier t;
    (* Every GPU core densely reads the SAME window and the parameters:
       hierarchical sharing (paper Table VII: RSCT sharing = hierarchical,
       data locality high). *)
    List.iter
      (fun (cu, w) ->
        let builder = t.Gen.gpus.(cu).(w) in
        for j = 0 to 15 do
          Gen.emit_check builder mem (Gen.addr params ((task * 16) + j))
        done;
        for j = 0 to window - 1 do
          Gen.emit_check builder mem (Gen.addr input ((task * window) + j))
        done)
      warps;
    Gen.global_barrier t
  done;
  Gen.finish t ~name:"rsct"

(* --- TQH --------------------------------------------------------------------- *)

(* Task-queue histogram: the CPU pushes task records and bumps queue
   tails; each GPU core pops and streams a private input partition
   (minimal hierarchical sharing) plus shared atomic histogram updates. *)
let tqh ?(scale = 1.0) g =
  let block = scaled scale 96 in
  let rounds = 4 in
  let bins = 32 in
  let nw = List.length (warp_list g) in
  let alloc = Gen.allocator () in
  let input = Gen.region alloc ~words:(block * nw * rounds) in
  let records = Gen.region alloc ~words:(16 * nw * rounds) in
  let tails = Gen.region alloc ~words:g.cus in
  let heads = Gen.region alloc ~words:g.cus in
  let hist = Gen.region alloc ~words:bins in
  let mem = Gen.mem () in
  let t = Gen.create ~cpus:g.cpus ~cus:g.cus ~warps:g.warps in
  let warps = warp_list g in
  for round = 0 to rounds - 1 do
    (* CPU threads push one task record per warp and bump the tails. *)
    List.iteri
      (fun i (cu, _) ->
        let task = (round * nw) + i in
        let producer = t.Gen.cpus.(i mod g.cpus) in
        for j = 0 to 15 do
          Gen.emit_store producer mem (Gen.addr records ((task * 16) + j))
            ((task * 100) + j)
        done;
        Gen.emit_rmw_add producer mem (Gen.addr tails cu) 1)
      warps;
    Gen.global_barrier t;
    (* Each warp pops and processes a PRIVATE input partition (hierarchical
       sharing is minimal, Table VII), updating a shared histogram. *)
    List.iteri
      (fun i (cu, w) ->
        let builder = t.Gen.gpus.(cu).(w) in
        let task = (round * nw) + i in
        Gen.emit_rmw_add builder mem (Gen.addr heads cu) 1;
        for j = 0 to 15 do
          Gen.emit_check builder mem (Gen.addr records ((task * 16) + j))
        done;
        for j = 0 to block - 1 do
          let a = Gen.addr input ((task * block) + j) in
          let v = Gen.read mem a in
          Gen.emit_check builder mem a;
          if j mod 4 = 0 then
            Gen.emit_rmw_add builder mem (Gen.addr hist (v mod bins)) 1
        done)
      warps;
    Gen.global_barrier t
  done;
  let checker = t.Gen.cpus.(0) in
  for b = 0 to bins - 1 do
    Gen.emit_check checker mem (Gen.addr hist b)
  done;
  Gen.finish t ~name:"tqh"

let all =
  [
    ("bc", bc);
    ("pr", pr);
    ("hsti", hsti);
    ("trns", trns);
    ("rsct", rsct);
    ("tqh", tqh);
  ]
