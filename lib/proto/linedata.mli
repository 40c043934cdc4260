(** Helpers for the mask-relative value arrays carried in message payloads.

    A payload [Data values] lists one value per set bit of the mask, in
    increasing word order.  These helpers convert between that packed form
    and full [words_per_line]-sized arrays. *)

val pack : mask:Spandex_util.Mask.t -> full:int array -> int array
(** Select the masked words of a full line array into packed order. *)

val unpack_into : mask:Spandex_util.Mask.t -> values:int array -> full:int array -> unit
(** Scatter packed [values] into a full line array at the masked positions. *)

val iter : mask:Spandex_util.Mask.t -> values:int array -> f:(word:int -> value:int -> unit) -> unit

val init_word : line:int -> word:int -> int
(** Deterministic initial memory contents, so tests can predict the value
    of never-written words. *)

val fresh_line : line:int -> int array
(** A full line of initial memory contents. *)
