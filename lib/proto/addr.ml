let line_bytes = 64
let word_bytes = 4
let words_per_line = line_bytes / word_bytes

type t = { line : int; word : int }

let make ~line ~word =
  assert (word >= 0 && word < words_per_line);
  assert (line >= 0);
  { line; word }

let pp fmt { line; word } = Format.fprintf fmt "%d.%d" line word

let line_of_word_index i =
  { line = i / words_per_line; word = i mod words_per_line }

let full_mask = Spandex_util.Mask.full ~words:words_per_line
let bank_of ~banks line = line mod banks
