(** Seeded fault-injection plan for the interconnect.

    A plan describes, per message category, the probability of dropping,
    duplicating, extra-delaying, or reordering each message.  Decisions
    are drawn from a dedicated per-(src, dst) link [Rng] stream derived
    from the plan seed, so a given (plan, seed, workload) triple is fully
    deterministic and each link's stream is independent of traffic on
    every other link.

    Fault eligibility follows the recovery story: only messages whose
    loss the requester can recover with an end-to-end retry timer (see
    {!faultable}) may be dropped or duplicated; everything else rides a
    lossless virtual channel and can only be delayed or reordered, with
    per-(src, dst) FIFO order preserved. *)

module Retry = Spandex_util.Retry

type probs = { drop : float; dup : float; delay : float; reorder : float }

type spec = {
  seed : int;
  per_category : probs array;
      (** indexed by {!Spandex_proto.Msg.category_index}, length 6. *)
  delay_min : int;  (** extra-delay fault: min added cycles. *)
  delay_max : int;  (** extra-delay fault: max added cycles. *)
  reorder_window : int;  (** reorder fault: max added skew in cycles. *)
  retry : Retry.config;  (** recovery tuning for the requesters. *)
}

val uniform :
  ?drop:float ->
  ?dup:float ->
  ?delay:float ->
  ?reorder:float ->
  ?delay_min:int ->
  ?delay_max:int ->
  ?reorder_window:int ->
  ?retry:Retry.config ->
  seed:int ->
  unit ->
  spec
(** A spec applying the same probabilities to every category.
    Probabilities default to 0, [delay_min]/[delay_max] to 32/256,
    [reorder_window] to 24, [retry] to {!Retry.default}. *)

val faultable : Spandex_proto.Msg.t -> bool
(** True when losing the message is recoverable by the requester's retry
    timer: plain (non-forwarded) requests and the responses that complete
    them at the requester (RspV, RspWT, RspWB, Nack, and data-less RspO
    grants).  Forwarded requests, probes, probe responses, and
    data-carrying transfers must not be dropped — no end-to-end timer can
    recover stranded ownership or the only copy of dirty data. *)

type t

val create : spec -> stats:Spandex_util.Stats.t -> t
(** Injection decisions bump ["fault.injected"] / ["fault.<what>"] (and
    ["fault.exempt"] for vetoed drops) in [stats]. *)

val retry_config : t -> Retry.config

type verdict =
  | Drop
  | Deliver of int list
      (** total delay from now per copy (>= 1 copy), FIFO-clamped. *)

val route : t -> now:int -> latency:int -> Spandex_proto.Msg.t -> verdict
(** Decide the fate of one message about to be sent with nominal
    [latency].  Arrival times are clamped to be monotone per (src, dst)
    pair so point-to-point FIFO order survives delay and reorder
    faults. *)
