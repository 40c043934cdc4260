(** Translation-unit response collection (paper §III-D).

    Spandex tracks ownership at word granularity, so the words of one
    multi-word (or line-granularity) request may be satisfied by different
    responders: the LLC for words valid there, and one direct response per
    remote owner for the rest.  "A device that can issue multi-word requests
    must be able to handle multiple partial word granularity responses" —
    this collector accumulates them and reports completion, including words
    that were Nacked (a forwarded ReqV that raced past an ownership change)
    so the device's TU can retry or convert the request. *)

type t

type result = {
  mutable data_mask : Spandex_util.Mask.t;
      (** words that arrived with data. *)
  values : int array;  (** full-line array, live where [data_mask]. *)
  mutable acked : Spandex_util.Mask.t;
      (** words acknowledged without data. *)
  mutable nacked : Spandex_util.Mask.t;
      (** demanded words that were Nacked.  Fields are mutable because
          {!absorb} accumulates in place; callers treat a completed result
          as settled. *)
}

val create : demand:Spandex_util.Mask.t -> t
(** Completion requires every word of [demand] to be covered by data, an
    ack, or a Nack. *)

val absorb : t -> Spandex_proto.Msg.t -> result option
(** Feed one response.  Returns [Some result] exactly once, when the demand
    is fully covered.  Responses covering extra (opportunistic) words are
    folded in. *)

val fingerprint : Spandex_util.Fingerprint.t -> t -> unit
(** Append the accumulation so far (masks, then the data words) — used by
    the L1s' model-checker fingerprints. *)
