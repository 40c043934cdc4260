(** Backing memory.

    Holds the authoritative copy of every line not owned on chip, split
    into independent per-bank channels.  Reads cost [latency] cycles plus
    queuing at a fixed per-channel service rate; writes update state
    immediately (write latency is off the critical path for every
    protocol studied).  Never-written words read as
    {!Spandex_proto.Linedata.init_word}.

    Lines interleave across channels the same way they interleave across
    LLC banks ([line mod channels]), so with one channel per bank each
    bank's memory traffic queues only on its own channel.  The per-bank
    channels set DRAM queueing delay, and with it the cycle counts the
    committed goldens pin. *)

(** One independent DRAM channel: its own queue, timing and line store. *)
module Channel : sig
  type t

  val read_line : t -> line:int -> k:(int array -> unit) -> unit
  val write_words :
    t -> line:int -> mask:Spandex_util.Mask.t -> values:int array -> unit

  val peak_queue_depth : t -> int
  (** High-water mark of the channel's queue depth over the run so far
      (sampled at each enqueue, where the queue is deepest);
      deterministic. *)

  val reads : t -> int
  val writes : t -> int
end

type t

val create :
  ?channels:int ->
  Spandex_sim.Engine.t ->
  latency:int ->
  service_interval:int ->
  t
(** [channels] (default 1) independent channels on [engine]; [Run] makes
    one per home bank.  [service_interval] cycles between successive
    accesses to one channel models DRAM bandwidth; 0 means unlimited. *)

val channels : t -> Channel.t array
(** The per-bank channels, in bank order. *)

val read_line : t -> line:int -> k:(int array -> unit) -> unit
(** Fetch a full line via its channel; [k] receives a fresh copy after
    the access delay. *)

val write_words :
  t -> line:int -> mask:Spandex_util.Mask.t -> values:int array -> unit
(** Commit masked words ([values] in packed order). *)

val peek_word : t -> Spandex_proto.Addr.t -> int
(** Current contents, for oracles/tests; no timing effect. *)

val reads : t -> int
(** Total across channels. *)

val writes : t -> int
(** Total across channels. *)

val register_metrics : t -> Spandex_obs.Metrics.t -> unit
(** Register every channel's series on one registry, each labelled with
    its [bank]. *)
