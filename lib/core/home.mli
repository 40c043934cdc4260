(** The banked home: the plumbing every coherence point shares.

    The Spandex LLC ({!Llc}, also the hierarchical GPU L2) and the MESI
    directory ([Spandex_mesi.Mesi_dir]) are banked homes (§III-B, Table
    VI: 16-bank NUCA): lines interleave across endpoints
    [first_id .. first_id + banks - 1] by {!Spandex_proto.Addr.bank_of},
    and each bank owns a disjoint slice of one tag frame.  This layer owns
    the frame; the bank records (probe-id allocator, stats, interned
    ["req.<kind>"] keys), so a bank draws probe ids in its own arrival
    order (the committed goldens pin them); message construction, charged
    the home's access latency; the at-most-once reply cache; and per-bank
    pending sources, metric probes and fingerprint skeleton.  Protocol
    dispatch, [pending]/[blocked] bookkeeping and allocation stay with each
    home, which reports them through a {!view}. *)

module Msg := Spandex_proto.Msg
module Mask := Spandex_util.Mask
module Stats := Spandex_util.Stats
module Engine := Spandex_sim.Engine

type 'meta t
type items = Engine.pending_work list

type 'meta view = {
  busy : 'meta -> bool;  (** a home transaction is in flight on the line. *)
  blocked : 'meta -> int;  (** requests parked behind it. *)
  describe : 'meta -> (string -> Engine.pending_work) -> items -> items;
      (** [describe m item acc] prepends one [item what] per piece of live
          work on the line (none when it is idle). *)
}

type probes = {
  tag : string;
      (** ["llc"] or ["dir"]: trace name ["<tag>.replay"], counter tracks
          ["<tag>.pending"] / ["<tag>.blocked"], metrics
          ["spandex_<tag>_pending"] / ["_blocked"] / ["_replayed_total"],
          and the fingerprint tag. *)
  lines_metric : string;  (** the resident-line gauge. *)
  lines_help : string;
  pending_help : string;
}

val create :
  Engine.t -> Spandex_net.Network.t -> name:string -> first_id:Msg.device_id ->
  banks:int -> sets:int -> ways:int -> access_latency:int ->
  guarded:(Msg.req_kind -> bool) -> probes -> 'meta view -> 'meta t
(** Registers one engine pending source per bank, named
    [bank_name name bank].
    [guarded] names the request kinds whose processing is not idempotent.
    Raises [Invalid_argument] unless [banks ≥ 1] and [banks] divides
    [sets]. *)

val listen : 'meta t -> (Msg.t -> unit) -> unit
(** Register [handle] on every bank endpoint.  Under fault injection it
    sits behind the at-most-once filter: the first arrival of a guarded,
    non-forwarded request's txn opens a reply record and is handled; a
    later arrival of that txn re-sends what {!respond} recorded for it
    (possibly nothing yet) and bumps ["replayed"].  Internal re-dispatches
    (unblocking, allocation retries) call [handle] directly. *)

val frame : 'meta t -> 'meta Spandex_mem.Cache_frame.t
val endpoint : 'meta t -> line:int -> Msg.device_id
val stats : 'meta t -> line:int -> Stats.t
(** The stats of the bank [line] interleaves to. *)

val payload : Msg.t -> int array
(** The values a data-carrying request brings home; raises
    [Invalid_argument] when it carries none. *)

val count_req : 'meta t -> line:int -> Msg.req_kind -> unit
(** Bump ["req.<kind>"] in [line]'s bank. *)

val respond :
  'meta t -> Msg.t -> kind:Msg.rsp_kind -> mask:Mask.t ->
  ?payload:Msg.payload -> unit -> unit
(** Answer a request at its requestor, recording the response when the
    request's txn has a reply record. *)

val forward :
  'meta t -> Msg.t -> kind:Msg.req_kind -> dst:Msg.device_id ->
  mask:Mask.t -> ?demand:Mask.t -> unit -> unit
(** Forward a request to [dst], keeping its txn and requestor.  Never
    recorded: the response it solicits rides the lossless channel, and a
    re-sent forward is unsound (a model-checker counterexample: a
    duplicate request arrives while the registration still matches, and
    the re-sent revocation races into a later epoch at the old owner). *)

val probe :
  'meta t -> kind:Msg.probe_kind -> dst:Msg.device_id -> line:int ->
  mask:Mask.t -> unit
(** A home-initiated probe under a fresh id from [line]'s bank. *)

val bank_stats : 'meta t -> int -> Stats.t
(** Bank [b]'s counters; {!Stats.merge_into} of every bank under one
    prefix sums to the aggregate. *)

val bank_name : string -> int -> string
(** [bank_name name b] is bank [b]'s pending-source name,
    ["<name>.b<b>"]. *)

val parts :
  'meta t -> fingerprint:(Spandex_util.Fingerprint.t -> unit) ->
  Spandex_device.Part.t array
(** One part per bank, in bank order: the bank's counters and probes
    (resident, pending and blocked lines, the last two feeding the counter
    tracks of the bank endpoint, and the replay counter), labelled
    [device] and [bank].  Bank 0 carries [fingerprint], the whole home's;
    the others add nothing to it. *)

val fingerprint :
  'meta t -> Spandex_util.Fingerprint.t ->
  line:(Spandex_util.Fingerprint.t -> 'meta -> unit) -> unit
(** The tag, the resident lines in line order (each its number, then
    [line]'s encoding) and, under fault injection, the reply cache in txn
    order: the model checker's visited-state key. *)
