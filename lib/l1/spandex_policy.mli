(** Per-request coherence policy (the Spandex flexibility knob).

    Spandex's central claim is that the request interface is flexible: a
    device may issue ReqV, ReqS, ReqWT or ReqO per access (paper §III-A),
    and the right choice depends on the access pattern, not the protocol
    family.  A DeNovo-family L1 asks its policy per access:
    {!classify_read} and {!classify_write} pick the request kind, and
    three hooks feed observed coherence events (ownership hits,
    write-throughs, downgrades) back into the policy's predictor.
    Protocols whose request kinds never vary — MESI (ReqS, ReqO+data) and
    GPU coherence (ReqV, ReqWT) — issue them directly.

    [Static_own] is classic DeNovo: ReqV for every load miss, ReqO for
    every store, no predictor state, and hooks that do nothing.
    [Adaptive] keeps per-line saturating reuse counters (cf. Alsop et
    al., "A Case for Fine-grain Coherence Specialization in Heterogeneous
    Systems"), and the same [spec] serves a CPU-DeNovo or a GPU-attached
    DeNovo L1.

    Write side (the SDA predictor): own lines with observed write reuse,
    write the rest through.  Reuse evidence is a store that hits an Owned
    word, or a store-buffer entry forming for a line that was written
    through within the last [wt_window] coalesce windows; an external
    downgrade decays the counter.

    Read side (off in {!adaptive_writes}): repeated load misses to the
    same line are self-invalidation thrash — Owned words survive acquires
    (paper §II-C), so once a line has missed [read_threshold] times the
    load is promoted to ReqO+data and the fill installs as Owned. *)

type read_kind =
  | Read_valid  (** ReqV: self-invalidated data, no sharer state at the LLC. *)
  | Read_own  (** ReqO+data: fetch with ownership; survives acquires. *)

type write_kind =
  | Write_through  (** ReqWT: update the LLC, keep nothing locally. *)
  | Write_own  (** ReqO: data-less ownership (every word overwritten). *)

type adaptive = {
  write_threshold : int;
      (** stores switch from ReqWT to ReqO once write reuse reaches this. *)
  read_threshold : int;
      (** load misses promote to ReqO+data once the line has missed this
          many times; 0 disables read promotion. *)
  saturation : int;  (** reuse-counter ceiling. *)
  wt_window : int;
      (** re-write recency horizon, in coalesce windows: a new store-buffer
          entry within this window of the line's last write-through counts
          as reuse evidence. *)
}

type spec =
  | Static_own  (** classic DeNovo: ReqO for all stores, ReqV for loads. *)
  | Adaptive of adaptive

val adaptive_writes : spec
(** The SDA predictor — what [Config.sda] sweeps: write_threshold 2,
    saturation 3, wt_window 8, read promotion off. *)

val adaptive_full : spec
(** {!adaptive_writes} plus ReqV-vs-ReqO+data load promotion
    (read_threshold 2) — what [Config.saa] sweeps. *)

type t
(** One L1's policy instance; an adaptive one owns its predictor tables. *)

val make : spec -> now:(unit -> int) -> coalesce_window:int -> t

val classify_read : t -> line:int -> read_kind
(** Request kind for a load miss to [line]. *)

val classify_write : t -> line:int -> write_kind
(** Request kind for a drained store-buffer entry of [line]. *)

val on_store_hit_owned : t -> line:int -> unit
(** A store committed into an Owned word of [line]. *)

val on_write_through : t -> line:int -> unit
(** A write-through for [line] was issued. *)

val on_downgrade : t -> line:int -> unit
(** An external request downgraded [line]. *)
