type device = I | V | O | S
type mesi = M_I | M_S | M_E | M_M
type llc_line = L_I | L_V | L_S

let device_of_mesi = function M_I -> I | M_S -> S | M_E -> O | M_M -> O
let device_readable = function V | O | S -> true | I -> false
let device_writable = function O -> true | I | V | S -> false
let device_to_string = function I -> "I" | V -> "V" | O -> "O" | S -> "S"

let llc_line_to_string = function L_I -> "I" | L_V -> "V" | L_S -> "S"
