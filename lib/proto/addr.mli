(** Address geometry.

    The whole system uses 64-byte cache lines divided into 16 four-byte
    words (paper §III: state and communication at word or line
    granularity).  Addresses are abstracted to a (line, word) pair; byte
    offsets inside a word never matter to the protocols. *)

val line_bytes : int (* 64 *)
val word_bytes : int (* 4 *)
val words_per_line : int (* 16 *)

type t = { line : int; word : int }
(** [line] is the cache-line number, [word] is the word index within it. *)

val make : line:int -> word:int -> t
(** Validates [0 <= word < words_per_line]. *)

val pp : Format.formatter -> t -> unit

val line_of_word_index : int -> t
(** Treat a flat word index (as used by array-shaped workloads) as an
    address: word index [i] lives in line [i / words_per_line]. *)

val full_mask : Spandex_util.Mask.t
(** Mask covering every word of a line. *)

val bank_of : banks:int -> int -> int
(** [bank_of ~banks line] is the bank line [line] interleaves to,
    [line mod banks]: the home bank endpoint's offset and, with one DRAM
    channel per bank, the channel. *)
