type device = I | V | O | S
type mesi = M_I | M_S | M_E | M_M
type llc_line = L_I | L_V | L_S

let device_to_string = function I -> "I" | V -> "V" | O -> "O" | S -> "S"

let llc_line_to_string = function L_I -> "I" | L_V -> "V" | L_S -> "S"
