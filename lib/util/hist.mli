(** Log-bucketed (HDR-style) latency histogram.

    Values are non-negative integers (cycles).  Buckets below [1 lsl
    sub_bits] are exact; above that each power-of-two octave is split into
    [1 lsl sub_bits] equal sub-buckets, so the relative quantization error
    is bounded by [2 ** -sub_bits] (~3% at the default precision).  Record
    and quantile extraction are both O(1) in the number of recorded
    samples (quantiles scan the fixed bucket array). *)

type t

val create : unit -> t

val record : t -> int -> unit
(** Record one sample.  Negative values clamp to 0. *)

val count : t -> int
val is_empty : t -> bool

val quantile : t -> float -> int
(** [quantile t q] for [q] in [0, 1]: an upper bound for the value at rank
    [ceil (q * count)], from the same bucket the exact order statistic
    falls in (clamped to the exact recorded maximum).  0 when empty. *)

val max_value : t -> int
(** Exact largest recorded sample; 0 when empty. *)

val mean : t -> float
(** Exact total / count (totals are tracked outside the buckets). *)

type summary = {
  count : int;
  p50 : int;
  p90 : int;
  p99 : int;
  max : int;
  mean : float;
}

val summary : t -> summary

val index : int -> int
(** The bucket index a value falls in — exposed so property tests can
    assert a quantile lands in the same bucket as the exact order
    statistic, and for bucket-level equality checks. *)

val bucket_bounds : int -> int * int
(** [bucket_bounds i] is the inclusive [(lo, hi)] value range of bucket
    [i]; [index v = i] iff [lo <= v <= hi]. *)
