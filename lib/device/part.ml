(** What one device endpoint hands the system builder: its counters,
    metric probes and state fingerprint, plus, for an L1, its core-facing
    port and the read-only view the invariant oracles use.  Every L1, home
    bank and the hierarchical GPU L2's client port builds one, so [Run]
    wires, names and observes them all the same way. *)

type l1 = {
  port : Port.t;
  owned_mask : line:int -> Spandex_util.Mask.t;
      (** words of [line] the L1 claims ownership of: its SWMR claim. *)
  peek_word : Spandex_proto.Addr.t -> int option;
      (** the locally cached value of a word, if the L1 holds a valid copy. *)
}

type t = {
  stats : Spandex_util.Stats.t;
  register_metrics :
    label:string -> name:string -> Spandex_obs.Metrics.t -> unit;
      (** register the endpoint's probes under its [Run] label; its trace
          counter tracks are named ["<name>.<what>"] from its device
          name. *)
  fingerprint : Spandex_util.Fingerprint.t -> unit;
      (** the endpoint's share of the model checker's visited-state key (a
          banked home emits its whole state from bank 0). *)
  l1 : l1 option;  (** [None] for a home bank or the client port. *)
}
