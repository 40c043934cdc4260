(** Synthetic graphs for the Pannotia workloads.

    The paper evaluates BC on `olesnik` and PR on `wing` (Table VII); those
    inputs are not redistributable here, so we generate graphs with the
    properties the evaluation depends on: a skewed (preferential
    attachment) degree distribution for BC — which is what gives its atomic
    updates high temporal locality — and a more uniform mesh-like structure
    for PR. *)

type t = {
  vertices : int;
  edges : (int * int) array;  (** directed (src, dst). *)
  out_edges : int list array;  (** adjacency: destinations per source. *)
}

val community :
  seed:int ->
  vertices:int ->
  parts:int ->
  avg_degree:int ->
  local_frac:float ->
  t
(** Community-structured power-law graph: the vertex space is split into
    [parts] contiguous communities; edge sources are drawn from a skewed
    (unbalanced) distribution over communities, and each destination is,
    with probability [local_frac], a preferential pick {e within the
    source's community}.  When the communities align with a vertex
    partitioning, each partition's updates mostly target its own hub
    vertices — the locality structure BC's evaluation depends on
    (paper §V-B: high temporal locality in atomics, unbalanced work). *)

val mesh : seed:int -> vertices:int -> avg_degree:int -> t
(** Near-uniform degree, neighbours scattered pseudo-randomly. *)
