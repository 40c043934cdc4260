module Rng = Spandex_util.Rng

type t = {
  vertices : int;
  edges : (int * int) array;
  out_edges : int list array;
}

let build vertices edges =
  let out_edges = Array.make vertices [] in
  Array.iter (fun (s, d) -> out_edges.(s) <- d :: out_edges.(s)) edges;
  { vertices; edges; out_edges }

let community ~seed ~vertices ~parts ~avg_degree ~local_frac =
  let rng = Rng.create ~seed in
  let n_edges = vertices * avg_degree in
  let part_range p =
    let base = vertices / parts and extra = vertices mod parts in
    let lo = (p * base) + min p extra in
    (lo, lo + base + (if p < extra then 1 else 0))
  in
  (* Unbalanced work: community p gets weight ~ 1/(1+p mod 7). *)
  let weights = Array.init parts (fun p -> 1.0 /. float_of_int (1 + (p mod 7))) in
  let total_weight = Array.fold_left ( +. ) 0.0 weights in
  let pick_part () =
    let x = ref (Rng.float rng total_weight) in
    let p = ref 0 in
    (try
       for i = 0 to parts - 1 do
         x := !x -. weights.(i);
         if !x <= 0.0 then begin
           p := i;
           raise Exit
         end
       done
     with Exit -> ());
    !p
  in
  (* Per-community endpoint pools give preferential (hub) destinations:
     sampling a prior endpoint weights vertices by their degree so far. *)
  let pools = Array.init parts (fun _ -> (Array.make n_edges 0, ref 0)) in
  let global_pool = (Array.make n_edges 0, ref 0) in
  let pick_pref (pool, count) lo hi =
    if !count > 0 && Rng.int rng 4 > 0 then pool.(Rng.int rng !count)
    else lo + Rng.int rng (max 1 (hi - lo))
  in
  let record (pool, count) d =
    if !count < Array.length pool then begin
      pool.(!count) <- d;
      incr count
    end
  in
  let edges =
    Array.init n_edges (fun _ ->
        let p = pick_part () in
        let lo, hi = part_range p in
        let s = lo + Rng.int rng (max 1 (hi - lo)) in
        let d =
          if Rng.float rng 1.0 < local_frac then pick_pref pools.(p) lo hi
          else pick_pref global_pool 0 vertices
        in
        if d >= lo && d < hi then record pools.(p) d;
        record global_pool d;
        (s, d))
  in
  build vertices edges

let mesh ~seed ~vertices ~avg_degree =
  let rng = Rng.create ~seed in
  let edges =
    Array.init (vertices * avg_degree) (fun i ->
        let s = i mod vertices in
        let d = (s + 1 + Rng.int rng (vertices - 1)) mod vertices in
        (s, d))
  in
  build vertices edges
