(** Packed programs: what a core executes.

    A program is two int arrays with one entry per op.  [code.(i)] holds
    op [i]'s {!kind} in its low 4 bits and its operand above them;
    [args.(i)] holds its second operand:

    {v
    kind            operand (code lsr 4)   args
    Load            address index          0
    Store / Check   address index          the stored / expected value
    Rmw             address index          AMO index
    Acquire_region  region                 0
    Barrier         barrier                0
    Barrier_region  barrier                region
    Compute         cycles                 0
    Acquire         0                      0
    Release         0                      0
    v}

    An address index selects an entry of [addrs], an AMO index one of
    [amos].  Programs of one generated workload share both tables, so an
    op costs two words and issuing one allocates nothing: the core hands
    [addrs.(operand)] to its {!Port.t} as is.  {!Ops.t} stays the view for
    printing and for building programs by hand ({!get}, {!of_ops}). *)

type kind =
  | Load
  | Store
  | Rmw
  | Acquire
  | Acquire_region
  | Release
  | Barrier
  | Barrier_region
  | Compute
  | Check

type t = private {
  code : int array;
  args : int array;
  addrs : Spandex_proto.Addr.t array;
  amos : Spandex_proto.Amo.t array;
}

val kind : int -> kind
(** The kind of a [code] word. *)

val operand : int -> int
(** The operand of a [code] word. *)

val length : t -> int

val get : t -> int -> Ops.t
(** [get p i] decodes op [i]. *)

val to_ops : t -> Ops.t array

val of_ops : Ops.t array -> t
(** Encodes a hand-built program.  Its tables hold the distinct addresses
    and AMOs it names, in order of first use, so a far line costs one
    entry.  Raises [Invalid_argument] as {!push} and {!flat} do. *)

(** {2 Building} *)

val max_operand : int
(** The largest operand a [code] word holds. *)

val flat : Spandex_proto.Addr.t -> int
(** [line * words_per_line + word], the address's flat word index; raises
    [Invalid_argument] for a negative line or one whose index exceeds
    {!max_operand}. *)

type builder

val builder : unit -> builder

val push : builder -> kind -> int -> int -> unit
(** [push b kind operand arg] appends one op.  Raises [Invalid_argument]
    when [operand] is negative or above {!max_operand}, or when a
    [Barrier_region]'s region [arg] is negative. *)

val push_op :
  builder ->
  addr:(Spandex_proto.Addr.t -> int) ->
  amo:(Spandex_proto.Amo.t -> int) ->
  Ops.t ->
  unit
(** Appends one op, with [addr] and [amo] giving the table indices of its
    address and AMO. *)

val interner : ('a -> 'k) -> ('a -> int) * (unit -> 'a array)
(** [interner key] is [(index_of, table)]: [index_of x] numbers the
    distinct [key x] in order of first use, and [table ()] lists one value
    per number. *)

val make :
  builder ->
  addrs:Spandex_proto.Addr.t array ->
  amos:Spandex_proto.Amo.t array ->
  t
(** The program built so far over the given tables.  Raises
    [Invalid_argument] when an address or AMO index is outside its
    table. *)
