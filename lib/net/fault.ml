(* Seeded fault-injection plan for the interconnect.

   A plan describes, per message category, the probability of dropping,
   duplicating, extra-delaying, or reordering each message.  Decisions are
   drawn from a dedicated per-(src, dst) link [Rng] stream derived from
   the plan seed alone, so a given (plan, seed, workload) triple is fully
   deterministic AND the decisions on one link are independent of the
   traffic interleaving on every other link.  A protocol change that adds
   or removes traffic on one link therefore leaves every other link's
   fault decisions where they were, and the fault-armed goldens pin these
   per-link streams.

   Fault eligibility follows the recovery story, not the other way round:

   - Plain requests (fwd = false) and the responses that complete them at
     the requester (RspV, RspWT, RspWB, and Nack) are end-to-end
     recoverable — the requester holds an MSHR or write-back record for
     the txn and re-issues the original message on timeout — so these may
     be dropped or duplicated.
   - Forwarded requests, probes (Inv / RvkO), probe responses (Ack /
     RspRvkO), data-carrying transfers (RspS, RspOdata, RspWTdata), and
     data-less RspO ownership grants ride a lossless virtual channel,
     mirroring real fabrics (CXL link-layer retry): dropping them would
     strand ownership or lose the only copy of dirty data, which no
     end-to-end timer can recover.  RspO in particular completes an
     ownership transfer serialized at the LLC and may originate at a
     third-party previous owner; re-soliciting it would mean re-sending
     the forwarded revocation, which a model-checker counterexample shows
     can race into a *later* registration epoch at the old owner (it
     relinquishes words the directory still registers to it).  They can
     still be delayed or reordered.

   Extra delay and reordering preserve per-(src, dst) FIFO order: the
   protocols rely on point-to-point ordering (e.g. a forwarded request
   serialized before a write-back ack at the LLC must reach the owner
   first), so arrival times are clamped to be monotone per pair, and the
   engine's event queue is FIFO-stable for equal timestamps.  Reordering
   across different sources at one ingress — where the interesting races
   live — is unrestricted. *)

module Msg = Spandex_proto.Msg
module Rng = Spandex_util.Rng
module Stats = Spandex_util.Stats
module Retry = Spandex_util.Retry

type probs = { drop : float; dup : float; delay : float; reorder : float }

type spec = {
  seed : int;
  per_category : probs array;
      (** indexed by [Msg.category_index], length 6. *)
  delay_min : int;  (** extra-delay fault: min added cycles. *)
  delay_max : int;  (** extra-delay fault: max added cycles. *)
  reorder_window : int;  (** reorder fault: max added skew in cycles. *)
  retry : Retry.config;  (** recovery tuning for the requesters. *)
}

let uniform ?(drop = 0.0) ?(dup = 0.0) ?(delay = 0.0) ?(reorder = 0.0)
    ?(delay_min = 32) ?(delay_max = 256) ?(reorder_window = 24)
    ?(retry = Retry.default) ~seed () =
  {
    seed;
    per_category = Array.make 6 { drop; dup; delay; reorder };
    delay_min;
    delay_max;
    reorder_window;
    retry;
  }

(* True when losing [msg] is recoverable by the requester's retry timer. *)
let faultable (msg : Msg.t) =
  (not msg.fwd)
  &&
  match msg.kind with
  | Msg.Req _ -> true
  | Msg.Rsp (Msg.RspV | Msg.RspWT | Msg.RspWB | Msg.Nack) -> true
  | Msg.Rsp _ | Msg.Probe _ -> false

(* One (src, dst) link: its own decision stream plus the last scheduled
   arrival for FIFO clamping. *)
type link = { rng : Rng.t; mutable last : int }

type t = {
  spec : spec;
  stats : Stats.t;
  links : (int * int, link) Hashtbl.t;
}

(* splitmix64 finalizer folding the link identity into the plan seed, so
   each link's stream is a pure function of (seed, src, dst). *)
let link_seed seed src dst =
  let mix h k =
    let h = Int64.logxor h (Int64.mul (Int64.of_int k) 0x9E3779B97F4A7C15L) in
    let h = Int64.logxor h (Int64.shift_right_logical h 30) in
    let h = Int64.mul h 0xBF58476D1CE4E5B9L in
    let h = Int64.logxor h (Int64.shift_right_logical h 27) in
    let h = Int64.mul h 0x94D049BB133111EBL in
    Int64.logxor h (Int64.shift_right_logical h 31)
  in
  Int64.to_int (mix (mix (Int64.of_int seed) (src + 1)) (dst + 1))

let link t ~src ~dst =
  let key = (src, dst) in
  match Hashtbl.find_opt t.links key with
  | Some l -> l
  | None ->
    let l =
      { rng = Rng.create ~seed:(link_seed t.spec.seed src dst); last = min_int }
    in
    Hashtbl.add t.links key l;
    l

let create spec ~stats = { spec; stats; links = Hashtbl.create 64 }
let retry_config t = t.spec.retry

type verdict =
  | Drop
  | Deliver of int list
      (** total delay from now per copy (>= 1 copy), FIFO-clamped. *)

let count t what =
  Stats.incr t.stats "fault.injected";
  Stats.incr t.stats ("fault." ^ what)

let route t ~now ~latency (msg : Msg.t) =
  let p = t.spec.per_category.(Msg.category_index (Msg.category msg.kind)) in
  let lk = link t ~src:msg.src ~dst:msg.dst in
  let roll pr = pr > 0.0 && Rng.float lk.rng 1.0 < pr in
  let clamp arrival =
    let arrival = if lk.last > arrival then lk.last else arrival in
    lk.last <- arrival;
    arrival
  in
  let ok = faultable msg in
  if roll p.drop then
    if ok then begin
      count t "drop";
      Drop
    end
    else begin
      (* Wanted to drop a lossless-channel message; record the exemption so
         eligibility is observable, and deliver normally. *)
      Stats.incr t.stats "fault.exempt";
      Deliver [ clamp (now + latency) - now ]
    end
  else begin
    let extra = ref 0 in
    if roll p.delay then begin
      count t "delay";
      extra :=
        !extra + t.spec.delay_min
        + Rng.int lk.rng (max 1 (t.spec.delay_max - t.spec.delay_min + 1))
    end;
    if roll p.reorder then begin
      count t "reorder";
      extra := !extra + Rng.int lk.rng (t.spec.reorder_window + 1)
    end;
    let first = clamp (now + latency + !extra) - now in
    if ok && roll p.dup then begin
      count t "dup";
      let skew = 1 + Rng.int lk.rng (max 1 t.spec.reorder_window) in
      let second = clamp (now + first + skew) - now in
      Deliver [ first; second ]
    end
    else Deliver [ first ]
  end
