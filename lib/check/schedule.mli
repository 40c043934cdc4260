(** Delivery schedules and their JSONL counterexample format.

    A schedule is the sequence of choices the checker made at each choice
    point: deliver, drop, or duplicate one held in-flight message,
    identified by its pool sequence number (assigned in send order, which
    is deterministic given the preceding choices — so a schedule replays
    exactly).

    The on-disk format is one JSON object per line: a header recording
    the case / config / fault setting / seeded bug and the violation
    text, then one step object per action with a human-readable message
    summary.  Encoding and decoding are hand-rolled (flat objects only,
    no external JSON dependency). *)

type action =
  | Deliver of int  (** hand the held message with this seq to its dst. *)
  | Drop of int  (** discard it (fault choice; counts against budget). *)
  | Dup of int  (** deliver a copy now, keep the original held. *)

val seq_of : action -> int
val action_name : action -> string

type header = {
  h_case : string;
  h_config : string;
  h_cpus : int;
  h_gpus : int;
  h_banks : int;
      (** LLC bank count the case was explored with (1 in counterexample
          files written before banking existed). *)
  h_faults : bool;
  h_seed_bug : string option;
  h_violation : string;
}

val write : path:string -> header -> (action * string) list -> unit
(** Emit the JSONL counterexample; each action carries a one-line
    description of the message it manipulates. *)

val read : path:string -> header * action list
(** Parse a counterexample written by {!write}.  Raises [Failure] on
    malformed input. *)
