(** Coherence states.

    Spandex supports four stable states at any attached device (paper
    §III-A) and the same four at the LLC (§III-B); internal MESI states map
    onto them (Table I / §III-D). *)

type device = I | V | O | S
(** Invalid / Valid (self-invalidated) / Owned / Shared
    (writer-invalidated). *)

type mesi = M_I | M_S | M_E | M_M
(** Internal states of a MESI line-granularity cache. *)

type llc_line = L_I | L_V | L_S
(** Line-level LLC state; ownership is tracked separately per word. *)

val device_to_string : device -> string
val llc_line_to_string : llc_line -> string
