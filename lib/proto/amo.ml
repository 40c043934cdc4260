type t =
  | Read
  | Exch of int
  | Add of int
  | Max of int
  | Cas of { expected : int; desired : int }

let apply op old =
  match op with
  | Read -> (old, old)
  | Exch v -> (v, old)
  | Add v -> (old + v, old)
  | Max v -> ((if v > old then v else old), old)
  | Cas { expected; desired } ->
    if old = expected then (desired, old) else (old, old)

let pp fmt = function
  | Read -> Format.pp_print_string fmt "read"
  | Exch v -> Format.fprintf fmt "exch(%d)" v
  | Add v -> Format.fprintf fmt "add(%d)" v
  | Max v -> Format.fprintf fmt "max(%d)" v
  | Cas { expected; desired } -> Format.fprintf fmt "cas(%d,%d)" expected desired

module Fp = Spandex_util.Fingerprint

let fingerprint fp = function
  | Read -> Fp.int fp 0
  | Exch v ->
    Fp.int fp 1;
    Fp.int fp v
  | Add v ->
    Fp.int fp 2;
    Fp.int fp v
  | Max v ->
    Fp.int fp 3;
    Fp.int fp v
  | Cas { expected; desired } ->
    Fp.int fp 4;
    Fp.int fp expected;
    Fp.int fp desired
