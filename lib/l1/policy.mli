(** Per-request coherence-policy interface (the Spandex flexibility knob).

    Spandex's central claim is that the *request interface* is flexible: a
    device may issue ReqV, ReqS, ReqWT or ReqO per access (paper §III-A),
    and the right choice depends on the access pattern, not the protocol
    family.  A DeNovo-family L1 asks its policy per access: the
    classifiers pick the request kind, and the hooks feed observed
    coherence events (ownership hits, write-throughs, downgrades) back
    into the policy's predictor state.  Classic DeNovo uses a {!static}
    classification; {!Spandex_policy} builds adaptive instances with
    per-line saturating reuse counters (cf. Alsop et al., "A Case for
    Fine-grain Coherence Specialization in Heterogeneous Systems").
    Protocols whose request kinds never vary — MESI (ReqS, ReqO+data) and
    GPU coherence (ReqV, ReqWT) — issue them directly. *)

type read_kind =
  | Read_valid  (** ReqV: self-invalidated data, no sharer state at the LLC. *)
  | Read_own  (** ReqO+data: fetch with ownership; survives acquires. *)

type write_kind =
  | Write_through  (** ReqWT: update the LLC, keep nothing locally. *)
  | Write_own  (** ReqO: data-less ownership (every word overwritten). *)

type t = {
  classify_read : line:int -> read_kind;
      (** request-kind selection for a load miss to [line]. *)
  classify_write : line:int -> write_kind;
      (** request-kind selection for a drained store-buffer entry. *)
  on_store_hit_owned : line:int -> unit;
      (** state-transition hook: a store committed into an Owned word. *)
  on_write_through : line:int -> unit;
      (** state-transition hook: a write-through for [line] was issued. *)
  on_downgrade : line:int -> unit;
      (** probe-response hook: an external request downgraded [line]. *)
}

val static : read:read_kind -> write:write_kind -> t
(** Constant classification, no predictor state, no-op hooks. *)
