(** Unified adaptive request-selection policy.

    One predictor replaces what used to be scattered per-protocol knobs
    (a DeNovo-only write-policy variant, a GPU-only adaptive
    special-case): per-line saturating reuse counters drive both the
    ReqWT-vs-ReqO store decision and the ReqV-vs-ReqO+data load decision,
    and the same [spec] builds a policy for a CPU-DeNovo L1 or a
    GPU-attached DeNovo L1.

    Write side (the pre-existing SDA predictor, reproduced bit-for-bit):
    own lines with observed write reuse, write the rest through.  Reuse
    evidence is a store that hits an Owned word, or a store-buffer entry
    forming for a line that was written through within the last
    [wt_window] coalesce windows; an external downgrade decays the
    counter.

    Read side (new, off in the legacy spec): repeated load misses to the
    same line are self-invalidation thrash — Owned words survive acquires
    (paper §II-C), so once a line has missed [read_threshold] times the
    load is promoted to ReqO+data and the fill installs as Owned. *)

type adaptive = {
  write_threshold : int;
      (** stores switch from ReqWT to ReqO once write reuse reaches this. *)
  read_threshold : int;
      (** load misses promote to ReqO+data once the line has missed this
          many times; 0 disables read promotion (the legacy behaviour). *)
  saturation : int;  (** reuse-counter ceiling. *)
  wt_window : int;
      (** re-write recency horizon, in coalesce windows: a new store-buffer
          entry within this window of the line's last write-through counts
          as reuse evidence. *)
}

type spec =
  | Static_own  (** classic DeNovo: ReqO for all stores, ReqV for loads. *)
  | Adaptive of adaptive

val legacy_adaptive : adaptive
(** The SDA predictor: write_threshold 2, saturation 3, wt_window 8,
    read promotion off. *)

val adaptive_writes : spec
(** [Adaptive legacy_adaptive] — what [Config.sda] sweeps. *)

val adaptive_full : spec
(** Write adaptation plus ReqV-vs-ReqO+data load promotion
    (read_threshold 2) — what [Config.saa] sweeps. *)

val make :
  spec -> now:(unit -> int) -> coalesce_window:int -> Policy.t
(** Build a fresh policy instance (predictor tables are per-L1). *)
