(** Atomic read-modify-write operations.

    Carried by [ReqWT+data] requests when the update is performed remotely
    at the LLC (paper §III-A: "this request must specify the required update
    operation"), and executed locally by ownership-based caches. *)

type t =
  | Read  (** atomic load: returns the current value, writes it back. *)
  | Exch of int  (** atomic exchange. *)
  | Add of int  (** fetch-and-add. *)
  | Max of int  (** fetch-and-max. *)
  | Cas of { expected : int; desired : int }  (** compare-and-swap. *)

val apply : t -> int -> int * int
(** [apply op old] is [(new_value, returned_value)]; the returned value is
    the pre-update value (paper: the RspWT+data response "carries the value
    of the data before the update"). *)

val pp : Format.formatter -> t -> unit

val fingerprint : Spandex_util.Fingerprint.t -> t -> unit
(** Append a canonical encoding (constructor tag, then operands). *)
