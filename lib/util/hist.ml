(* HDR-style bucketing: values below [sub] are their own bucket; above
   that, the octave [2^m, 2^(m+1)) is split into [sub] equal sub-buckets.
   For v >= sub with top bit m:  index = (m - sub_bits) * sub + (v lsr (m -
   sub_bits)), which is continuous with the exact region at v = sub.  The
   whole table spans every non-negative OCaml int in under 2K buckets, so
   the array is allocated eagerly and record is branch + shift + add. *)

let sub_bits = 5
let sub = 1 lsl sub_bits

(* Highest set bit of v > 0, by binary search. *)
let msb v =
  let v = ref v and r = ref 0 in
  if !v lsr 32 <> 0 then begin r := !r + 32; v := !v lsr 32 end;
  if !v lsr 16 <> 0 then begin r := !r + 16; v := !v lsr 16 end;
  if !v lsr 8 <> 0 then begin r := !r + 8; v := !v lsr 8 end;
  if !v lsr 4 <> 0 then begin r := !r + 4; v := !v lsr 4 end;
  if !v lsr 2 <> 0 then begin r := !r + 2; v := !v lsr 2 end;
  if !v lsr 1 <> 0 then incr r;
  !r

let index v =
  let v = if v < 0 then 0 else v in
  if v < sub then v
  else
    let shift = msb v - sub_bits in
    (shift * sub) + (v lsr shift)

(* max_int has msb 61; its index is the last slot. *)
let buckets = index max_int + 1

let bucket_bounds i =
  if i < sub then (i, i)
  else
    let shift = (i - sub) / sub in
    let offset = i - (shift * sub) in
    let lo = offset lsl shift in
    (lo, lo + (1 lsl shift) - 1)

type t = {
  counts : int array;
  mutable count : int;
  mutable max_v : int;  (* exact; -1 when empty. *)
  mutable total : float;  (* float: sums of cycle counts can exceed 2^62. *)
}

let create () =
  {
    counts = Array.make buckets 0;
    count = 0;
    max_v = -1;
    total = 0.0;
  }

let record t v =
  let v = if v < 0 then 0 else v in
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.count <- t.count + 1;
  if v > t.max_v then t.max_v <- v;
  t.total <- t.total +. float_of_int v
let count t = t.count
let is_empty t = t.count = 0

let max_value t = if t.count = 0 then 0 else t.max_v
let mean t = if t.count = 0 then 0.0 else t.total /. float_of_int t.count

let quantile t q =
  if t.count = 0 then 0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank =
      let r = int_of_float (ceil (q *. float_of_int t.count)) in
      if r < 1 then 1 else r
    in
    let i = ref 0 and cum = ref 0 in
    while !cum < rank do
      cum := !cum + t.counts.(!i);
      incr i
    done;
    let _, hi = bucket_bounds (!i - 1) in
    (* The bucket's upper bound, clipped to the exact max so p100 is
       exact and the result never exceeds anything recorded. *)
    if hi > t.max_v then t.max_v else hi
  end

type summary = {
  count : int;
  p50 : int;
  p90 : int;
  p99 : int;
  max : int;
  mean : float;
}

let summary (t : t) =
  {
    count = t.count;
    p50 = quantile t 0.5;
    p90 = quantile t 0.9;
    p99 = quantile t 0.99;
    max = max_value t;
    mean = mean t;
  }
