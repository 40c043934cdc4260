(** The Spandex message vocabulary (paper §III-A, §III-B).

    Seven device-issued request types, their responses, and the two
    LLC-initiated probes.  Forwarded requests reuse the request
    constructors: the LLC forwards a request to a remote owner by sending
    the same message with [fwd = true] and the original requestor preserved,
    so the owner can respond directly to the requestor (Fig. 1c/1d). *)

type device_id = int
(** Dense endpoint identifier assigned by the system builder.  The LLC and
    the memory controller also have device ids. *)

type req_kind =
  | ReqV  (** self-invalidated read: data only, no state at the LLC. *)
  | ReqS  (** writer-invalidated read: data + Shared state. *)
  | ReqWT  (** write-through of full words: no data response needed. *)
  | ReqO  (** ownership without data (all requested words overwritten). *)
  | ReqWTdata  (** update performed at the LLC; needs up-to-date data. *)
  | ReqOdata  (** ownership plus up-to-date data. *)
  | ReqWB  (** write-back of owned data. *)

type rsp_kind =
  | RspV
  | RspS
  | RspWT
  | RspO
  | RspWTdata
  | RspOdata
  | RspWB
  | RspRvkO  (** write-back triggered by a RvkO or forwarded ReqS. *)
  | Ack  (** response to Inv. *)
  | Nack  (** failed forwarded ReqV (owner no longer owns). *)

type probe_kind =
  | RvkO  (** revoke ownership, force write-back to the LLC. *)
  | Inv  (** invalidate Shared data. *)

type kind = Req of req_kind | Rsp of rsp_kind | Probe of probe_kind

val req : req_kind -> kind
(** [Req k] as a shared constant: allocation-free, unlike applying the
    constructor to a variable.  Likewise {!rsp} and {!probe}. *)

val rsp : rsp_kind -> kind
val probe : probe_kind -> kind

type payload =
  | No_data
  | Data of int array
      (** word values for the set bits of [mask], in increasing word
          order; [Array.length] equals [Mask.count mask].  Senders build a
          fresh array per message; receivers read it and never write it. *)

type t = {
  txn : int;  (** transaction id; responses echo the request's. *)
  kind : kind;
  line : int;
  mask : Spandex_util.Mask.t;  (** target words within [line]. *)
  demand : Spandex_util.Mask.t;
      (** subset of [mask] the requestor actually needs.  DeNovo ReqV
          requests demand a word but ask for the rest of the line
          opportunistically (Table II: "the responding device may include
          any available up-to-date data in the line"); only demanded words
          are forwarded to remote owners or Nack-retried. *)
  payload : payload;
  src : device_id;  (** immediate sender. *)
  dst : device_id;
  requestor : device_id;
      (** original requestor (survives forwarding). *)
  fwd : bool;  (** true when this request was forwarded by the LLC. *)
  amo : Amo.t option;  (** only on ReqWTdata / ReqOdata RMWs. *)
}
(** An immutable, GC-owned message.  A component may keep a delivered
    message for as long as it likes (blocked queues, resume closures,
    reply caches); one record may also be delivered more than once
    (fault duplicates, replays). *)

val make :
  txn:int ->
  kind:kind ->
  line:int ->
  mask:Spandex_util.Mask.t ->
  ?demand:Spandex_util.Mask.t ->
  ?payload:payload ->
  src:device_id ->
  dst:device_id ->
  ?requestor:device_id ->
  ?fwd:bool ->
  ?amo:Amo.t ->
  unit ->
  t
(** [requestor] defaults to [src]; [demand] to [mask]; [payload] to
    [No_data]; [fwd] to false.  When construction checks are enabled (see
    {!checks_enabled}), raises [Invalid_argument] if a [Data] payload length
    does not match the mask population or [demand] is not a subset of
    [mask]. *)

val checks_enabled : unit -> bool
(** Whether {!make} validates each message.  The checks are on by default
    everywhere; [SPANDEX_CHECKS=0] (also [false] / [off]) in the
    environment turns them off for the whole process, any other value
    leaves them on. *)

val dummy : t
(** A placeholder record for empty event slots; never delivered. *)

val kind_needs_data : kind -> bool
(** True when serving this request (or probe) at a remote owner requires
    the word's current data — a forwarded ReqV/ReqS/ReqO+data or a RvkO.
    Data-less ownership transfers (ReqO) and everything else are false. *)

type category = Cat_ReqV | Cat_ReqS | Cat_ReqWT | Cat_ReqO | Cat_WB | Cat_Probe
(** Traffic categories used by Figures 2 and 3.  Responses count toward
    their request's category; Inv/RvkO and their Ack/RspRvkO count as
    Probe traffic. *)

val category : kind -> category
val category_name : category -> string

val category_index : category -> int
(** Dense index in [0, 6); matches the order of {!all_categories}. *)

val all_categories : category list

val flits : t -> int
(** Network cost: 1 control flit plus 1 flit per 16 data bytes. *)

val pp_kind : Format.formatter -> kind -> unit
val pp : Format.formatter -> t -> unit
val kind_name : kind -> string
(** Constant string for a kind; allocation-free, unlike formatting. *)

val req_kind_name : req_kind -> string

val req_kind_index : req_kind -> int
(** Dense index in [0, 7); matches the order of {!all_req_kinds}. *)

val all_req_kinds : req_kind list

val kind_index : kind -> int
(** Dense index in [0, num_kinds); matches the order of {!all_kinds}. *)

val num_kinds : int
val all_kinds : kind list

val fingerprint : Spandex_util.Fingerprint.t -> t -> unit
(** Append a canonical encoding of the message (txn id remapped through
    the fingerprint's table) — used by the model checker to fingerprint
    held/queued messages. *)
