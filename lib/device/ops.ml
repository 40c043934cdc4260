module Addr = Spandex_proto.Addr
module Amo = Spandex_proto.Amo

type t =
  | Load of Addr.t
  | Store of Addr.t * int
  | Rmw of Addr.t * Amo.t
  | Acquire
  | Acquire_region of int
  | Release
  | Barrier of int
  | Barrier_region of int * int
  | Compute of int
  | Check of Addr.t * int

let pp fmt = function
  | Load a -> Format.fprintf fmt "load %a" Addr.pp a
  | Store (a, v) -> Format.fprintf fmt "store %a <- %d" Addr.pp a v
  | Rmw (a, op) -> Format.fprintf fmt "rmw %a %a" Addr.pp a Amo.pp op
  | Acquire -> Format.pp_print_string fmt "acquire"
  | Acquire_region r -> Format.fprintf fmt "acquire region %d" r
  | Release -> Format.pp_print_string fmt "release"
  | Barrier b -> Format.fprintf fmt "barrier %d" b
  | Barrier_region (b, r) -> Format.fprintf fmt "barrier %d (region %d)" b r
  | Compute n -> Format.fprintf fmt "compute %d" n
  | Check (a, v) -> Format.fprintf fmt "check %a = %d" Addr.pp a v
