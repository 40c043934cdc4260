(* Tests for the workload generators: structural validity, determinism, and
   the communication-pattern properties the paper's evaluation relies on. *)

module Ops = Spandex_device.Ops
module Program = Spandex_device.Program
module Workload = Spandex_system.Workload
module Registry = Spandex_workloads.Registry
module Microbench = Spandex_workloads.Microbench
module Apps = Spandex_workloads.Apps
module Graph = Spandex_workloads.Graph
module Gen = Spandex_workloads.Gen
module Stress = Spandex_workloads.Stress
module Addr = Spandex_proto.Addr

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let geom = { Microbench.cpus = 2; cus = 2; warps = 2 }

let all_build_and_validate () =
  List.iter
    (fun e ->
      let wl = e.Registry.build ~scale:0.25 geom in
      Workload.validate wl;
      check_bool (e.Registry.name ^ " nonempty") true (Workload.total_ops wl > 0);
      check_int
        (e.Registry.name ^ " cpu programs")
        geom.Microbench.cpus
        (Array.length wl.Workload.cpu_programs);
      check_int
        (e.Registry.name ^ " gpu cus")
        geom.Microbench.cus
        (Array.length wl.Workload.gpu_programs))
    Registry.entries

let generators_deterministic () =
  List.iter
    (fun e ->
      let a = e.Registry.build ~scale:0.25 geom in
      let b = e.Registry.build ~scale:0.25 geom in
      check_bool (e.Registry.name ^ " deterministic") true
        (a.Workload.cpu_programs = b.Workload.cpu_programs
        && a.Workload.gpu_programs = b.Workload.gpu_programs))
    Registry.entries

let barrier_participation_consistent () =
  (* Every context must execute each barrier id the same number of times,
     totalling the barrier's party count. *)
  List.iter
    (fun e ->
      let wl = e.Registry.build ~scale:0.25 geom in
      let uses = Array.make (Array.length wl.Workload.barrier_parties) 0 in
      let count p =
        Array.iter
          (function
            | Ops.Barrier b | Ops.Barrier_region (b, _) -> uses.(b) <- uses.(b) + 1
            | _ -> ())
          (Program.to_ops p)
      in
      Array.iter count wl.Workload.cpu_programs;
      Array.iter (fun cu -> Array.iter count cu) wl.Workload.gpu_programs;
      Array.iteri
        (fun b parties ->
          check_bool
            (Printf.sprintf "%s barrier %d arrivals" e.Registry.name b)
            true
            (uses.(b) mod parties = 0))
        wl.Workload.barrier_parties)
    Registry.entries

let scale_changes_size () =
  let small = (Registry.find "indirection").Registry.build ~scale:0.25 geom in
  let big = (Registry.find "indirection").Registry.build ~scale:1.0 geom in
  check_bool "scaling grows the workload" true
    (Workload.total_ops big > 2 * Workload.total_ops small)

(* ----- graph generators -------------------------------------------------------- *)

let max_in_degree g =
  let deg = Array.make g.Graph.vertices 0 in
  Array.iter (fun (_, d) -> deg.(d) <- deg.(d) + 1) g.Graph.edges;
  Array.fold_left max 0 deg

(* BC's community graph and PR's mesh: edges in range, and only the
   community graph has hubs. *)
let graph_shapes () =
  let g =
    Graph.community ~seed:1 ~vertices:500 ~parts:10 ~avg_degree:4
      ~local_frac:0.9
  in
  check_int "edge count" 2000 (Array.length g.Graph.edges);
  Array.iter
    (fun (s, d) ->
      check_bool "in range" true (s >= 0 && s < 500 && d >= 0 && d < 500))
    g.Graph.edges;
  (* The top vertex should have far more than average degree. *)
  let dmax = max_in_degree g in
  check_bool "hubs exist" true (dmax > 12);
  let mmax = max_in_degree (Graph.mesh ~seed:1 ~vertices:500 ~avg_degree:4) in
  check_bool "mesh flatter than community graph" true (mmax < dmax)

let community_graph_local () =
  let parts = 10 in
  let vertices = 500 in
  let g =
    Graph.community ~seed:2 ~vertices ~parts ~avg_degree:4 ~local_frac:0.9
  in
  let part_of v = v * parts / vertices in
  let local =
    Array.fold_left
      (fun acc (s, d) -> if part_of s = part_of d then acc + 1 else acc)
      0 g.Graph.edges
  in
  let frac = float_of_int local /. float_of_int (Array.length g.Graph.edges) in
  check_bool "mostly community-local" true (frac > 0.75)

(* ----- Gen utilities ------------------------------------------------------------ *)

let regions_disjoint () =
  let alloc = Gen.allocator () in
  let a = Gen.region alloc ~words:20 in
  let b = Gen.region alloc ~words:20 in
  (* Regions are line-aligned, so word 19 of [a] and word 0 of [b] are in
     different lines. *)
  check_bool "line-disjoint" true
    ((Gen.addr a 19).Addr.line < (Gen.addr b 0).Addr.line)

let mem_tracks_expectations () =
  let m = Gen.mem () in
  let a = Addr.make ~line:3 ~word:2 in
  check_int "initial value"
    (Spandex_proto.Linedata.init_word ~line:3 ~word:2)
    (Gen.read m a);
  Gen.write m a 5;
  check_int "after write" 5 (Gen.read m a);
  check_int "add returns new" 8 (Gen.add m a 3);
  check_int "accumulated" 8 (Gen.read m a)

(* Within a phase, no Check may target a word any thread stores to. *)
let race_free (wl : Workload.t) =
  let programs =
    List.map Program.to_ops
      (Array.to_list wl.Workload.cpu_programs
      @ List.concat_map Array.to_list (Array.to_list wl.Workload.gpu_programs))
  in
  let positions = List.map (fun p -> (p, ref 0)) programs in
  let ok = ref true in
  (* Walk phase by phase: collect ops of each program up to its next
     barrier, check write/read disjointness, advance. *)
  for _phase = 0 to Array.length wl.Workload.barrier_parties - 1 do
    let writes = Hashtbl.create 64 and reads = Hashtbl.create 64 in
    List.iter
      (fun (p, pos) ->
        let continue = ref true in
        while !continue && !pos < Array.length p do
          (match p.(!pos) with
          | Ops.Barrier _ -> continue := false
          | Ops.Store (a, _) -> Hashtbl.replace writes a ()
          | Ops.Check (a, _) -> Hashtbl.replace reads a ()
          | _ -> ());
          incr pos
        done)
      positions;
    Hashtbl.iter (fun a () -> if Hashtbl.mem writes a then ok := false) reads
  done;
  !ok

let stress_reads_are_race_free () =
  check_bool "no read-write race in a phase" true
    (race_free (Stress.generate Stress.default_spec geom))

(* Held-out seeds: every stress program validates and stays race free. *)
let stress_seeds_validate () =
  for seed = 1 to 50 do
    let wl = Stress.generate { Stress.default_spec with Stress.seed } geom in
    Workload.validate wl;
    check_bool (Printf.sprintf "seed %d race free" seed) true (race_free wl)
  done

let tests =
  [
    test "all_build_and_validate" all_build_and_validate;
    test "generators_deterministic" generators_deterministic;
    test "barrier_participation_consistent" barrier_participation_consistent;
    test "scale_changes_size" scale_changes_size;
    test "graph_shapes" graph_shapes;
    test "community_graph_local" community_graph_local;
    test "regions_disjoint" regions_disjoint;
    test "mem_tracks_expectations" mem_tracks_expectations;
    test "stress_reads_are_race_free" stress_reads_are_race_free;
    test "stress_seeds_validate" stress_seeds_validate;
  ]
