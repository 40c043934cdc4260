(** Generic end-to-end timeout/retry table.

    Requesters register an outstanding transaction with a closure that
    re-issues the original message(s); if the transaction is still live
    when the timer fires, the messages are re-sent verbatim (same txn id)
    and the timer re-arms with exponential backoff plus jitter, up to a
    max-attempts cap.  The module is protocol-agnostic: it never sees
    messages, only opaque resend thunks, so it lives in the util layer
    with scheduling injected by the caller. *)

type config = {
  base_timeout : int;  (** cycles before the first re-send. *)
  backoff_factor : int;  (** timeout multiplier per attempt. *)
  max_timeout : int;  (** backoff ceiling, pre-jitter. *)
  jitter : int;  (** uniform random extra in [0, jitter]. *)
  max_attempts : int;  (** re-sends before declaring the txn dead. *)
}

val default : config

exception Exhausted of string
(** Raised from a timer callback when a transaction exceeds
    [max_attempts]; carries the registered description. *)

type t

val create :
  config ->
  seed:int ->
  schedule:(delay:int -> (unit -> unit) -> unit) ->
  stats:Stats.t ->
  t
(** Timer scheduling is injected so the table stays engine-agnostic;
    resends bump ["retry.resend"], recoveries ["retry.recovered"] in
    [stats]. *)

val pending : t -> int
(** Number of live (armed, not yet completed) transactions. *)

val arm : t -> txn:int -> describe:string -> resend:(unit -> unit) -> unit
(** Register [resend] for [txn] and start its timeout timer.  A second
    [arm] on a live txn (one logical operation issuing several messages
    under one id) appends to the resend list without restarting the
    timer.  @raise Exhausted (from the timer, not from [arm]) once the
    attempt cap is exceeded. *)

val complete : t -> txn:int -> unit
(** Mark [txn] finished; idempotent.  Timers are never cancelled — a
    stale timer firing after completion is a no-op. *)
