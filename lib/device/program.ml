module Addr = Spandex_proto.Addr
module Amo = Spandex_proto.Amo

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

type t = {
  code : int array;
  args : int array;
  addrs : Addr.t array;
  amos : Amo.t array;
}

let kind_bits = 4

(* Indexed by a code word's low bits; [index] is the inverse. *)
let kinds =
  [| Load; Store; Rmw; Acquire; Acquire_region; Release; Barrier;
     Barrier_region; Compute; Check |]

let index = function
  | Load -> 0
  | Store -> 1
  | Rmw -> 2
  | Acquire -> 3
  | Acquire_region -> 4
  | Release -> 5
  | Barrier -> 6
  | Barrier_region -> 7
  | Compute -> 8
  | Check -> 9

let kind c = kinds.(c land ((1 lsl kind_bits) - 1))
let operand c = c lsr kind_bits
let max_operand = max_int lsr kind_bits
let length p = Array.length p.code

let get p i =
  let c = p.code.(i) and x = p.args.(i) in
  let n = operand c in
  match kind c with
  | Load -> Ops.Load p.addrs.(n)
  | Store -> Ops.Store (p.addrs.(n), x)
  | Rmw -> Ops.Rmw (p.addrs.(n), p.amos.(x))
  | Acquire -> Ops.Acquire
  | Acquire_region -> Ops.Acquire_region n
  | Release -> Ops.Release
  | Barrier -> Ops.Barrier n
  | Barrier_region -> Ops.Barrier_region (n, x)
  | Compute -> Ops.Compute n
  | Check -> Ops.Check (p.addrs.(n), x)

let to_ops p = Array.init (length p) (get p)

let flat (a : Addr.t) =
  if a.Addr.word < 0 || a.Addr.word >= Addr.words_per_line || a.Addr.line < 0
     || a.Addr.line > (max_operand - a.Addr.word) / Addr.words_per_line
  then invalid_arg (Format.asprintf "Program.flat: address %a out of range" Addr.pp a);
  (a.Addr.line * Addr.words_per_line) + a.Addr.word

(* A builder fills fixed-size chunks that [make] copies once into arrays
   of the exact length.  Growing one array by doubling would leave up to
   three times the program behind as garbage, which every pass's set-up
   adds to the peak heap. *)
let chunk = 512

type builder = {
  mutable full : (int array * int array) list;  (* newest first *)
  mutable b_code : int array;
  mutable b_args : int array;
  mutable len : int;  (* used entries of the current chunk *)
}

let builder () =
  { full = []; b_code = Array.make chunk 0; b_args = Array.make chunk 0; len = 0 }

let grow b =
  b.full <- (b.b_code, b.b_args) :: b.full;
  b.b_code <- Array.make chunk 0;
  b.b_args <- Array.make chunk 0;
  b.len <- 0

let push b kind n x =
  if n < 0 || n > max_operand then
    invalid_arg (Printf.sprintf "Program.push: operand %d out of range" n);
  if kind = Barrier_region && x < 0 then
    invalid_arg (Printf.sprintf "Program.push: region %d out of range" x);
  if b.len = chunk then grow b;
  b.b_code.(b.len) <- (n lsl kind_bits) lor index kind;
  b.b_args.(b.len) <- x;
  b.len <- b.len + 1

let push_op b ~addr ~amo = function
  | Ops.Load a -> push b Load (addr a) 0
  | Ops.Store (a, v) -> push b Store (addr a) v
  | Ops.Rmw (a, op) -> push b Rmw (addr a) (amo op)
  | Ops.Acquire -> push b Acquire 0 0
  | Ops.Acquire_region r -> push b Acquire_region r 0
  | Ops.Release -> push b Release 0 0
  | Ops.Barrier n -> push b Barrier n 0
  | Ops.Barrier_region (n, r) -> push b Barrier_region n r
  | Ops.Compute n -> push b Compute n 0
  | Ops.Check (a, v) -> push b Check (addr a) v

let make b ~addrs ~amos =
  let n = (List.length b.full * chunk) + b.len in
  let code = Array.make n 0 and args = Array.make n 0 in
  Array.blit b.b_code 0 code (n - b.len) b.len;
  Array.blit b.b_args 0 args (n - b.len) b.len;
  List.iteri
    (fun i (c, a) ->
      let at = n - b.len - ((i + 1) * chunk) in
      Array.blit c 0 code at chunk;
      Array.blit a 0 args at chunk)
    b.full;
  let bad i what =
    invalid_arg (Printf.sprintf "Program.make: op %d: %s out of range" i what)
  in
  for i = 0 to n - 1 do
    let c = code.(i) in
    match kind c with
    | (Load | Store | Check | Rmw) when operand c >= Array.length addrs ->
      bad i "address"
    | Rmw when args.(i) < 0 || args.(i) >= Array.length amos -> bad i "AMO"
    | _ -> ()
  done;
  { code; args; addrs; amos }

let interner key =
  let tbl = Hashtbl.create 16 and rev = ref [] and n = ref 0 in
  let index_of x =
    let k = key x in
    match Hashtbl.find_opt tbl k with
    | Some i -> i
    | None ->
      let i = !n in
      Hashtbl.add tbl k i;
      rev := x :: !rev;
      incr n;
      i
  in
  (index_of, fun () -> Array.of_list (List.rev !rev))

let of_ops ops =
  let b = builder () in
  let addr, addrs = interner flat and amo, amos = interner Fun.id in
  Array.iter (push_op b ~addr ~amo) ops;
  make b ~addrs:(addrs ()) ~amos:(amos ())
