(* Tests for the packed program encoding: every op survives a round trip,
   and operands the packing cannot hold are refused. *)

module Addr = Spandex_proto.Addr
module Amo = Spandex_proto.Amo
module Ops = Spandex_device.Ops
module Program = Spandex_device.Program

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ----- Round trip ----------------------------------------------------------------- *)

let max_line = (Program.max_operand - (Addr.words_per_line - 1)) / Addr.words_per_line

let gen_op =
  let open QCheck2.Gen in
  (* Values span the whole int range; the edges come up often. *)
  let value = oneof [ int; oneofl [ 0; -1; min_int; max_int; 1 lsl 61; -(1 lsl 61) ] ] in
  let operand =
    oneof [ int_bound 64; oneofl [ 0; Program.max_operand ]; int_bound Program.max_operand ]
  in
  let addr =
    map2
      (fun line word -> Addr.make ~line ~word)
      (oneof [ int_bound 8; int_bound 1_000_000; oneofl [ max_line ] ])
      (int_bound (Addr.words_per_line - 1))
  in
  let amo =
    oneof
      [
        pure Amo.Read;
        map (fun v -> Amo.Exch v) value;
        map (fun v -> Amo.Add v) value;
        map (fun v -> Amo.Max v) value;
        map2 (fun expected desired -> Amo.Cas { expected; desired }) value value;
      ]
  in
  oneof
    [
      map (fun a -> Ops.Load a) addr;
      map2 (fun a v -> Ops.Store (a, v)) addr value;
      map2 (fun a op -> Ops.Rmw (a, op)) addr amo;
      pure Ops.Acquire;
      map (fun r -> Ops.Acquire_region r) operand;
      pure Ops.Release;
      map (fun b -> Ops.Barrier b) operand;
      map2 (fun b r -> Ops.Barrier_region (b, r)) operand operand;
      map (fun n -> Ops.Compute n) operand;
      map2 (fun a v -> Ops.Check (a, v)) addr value;
    ]

let roundtrip_prop =
  QCheck2.Test.make ~name:"of_ops_roundtrip" ~count:500
    ~print:(fun ops ->
      String.concat "; " (List.map (Format.asprintf "%a" Ops.pp) ops))
    (* Some programs span several of the builder's chunks. *)
    QCheck2.Gen.(list_size (frequency [ (4, int_bound 40); (1, int_range 500 1600) ]) gen_op)
    (fun ops ->
      let a = Array.of_list ops in
      let p = Program.of_ops a in
      Program.length p = Array.length a && Program.to_ops p = a)

(* Interning keeps a far line to one table entry. *)
let far_line_interned () =
  let a = Addr.make ~line:1_000_000 ~word:3 in
  let p = Program.of_ops [| Ops.Load a; Ops.Store (a, 1); Ops.Check (a, 1) |] in
  check_int "one address entry" 1 (Array.length p.Program.addrs);
  check_bool "decodes" true (Program.get p 2 = Ops.Check (a, 1))

(* ----- Range ---------------------------------------------------------------------- *)

let raises_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

let out_of_range_refused () =
  let of_op op () = ignore (Program.of_ops [| op |] : Program.t) in
  raises_invalid "negative barrier" (of_op (Ops.Barrier (-1)));
  raises_invalid "negative region barrier" (of_op (Ops.Barrier_region (-1, 0)));
  raises_invalid "negative barrier region" (of_op (Ops.Barrier_region (0, -1)));
  raises_invalid "negative acquire region" (of_op (Ops.Acquire_region (-3)));
  raises_invalid "negative compute" (of_op (Ops.Compute (-1)));
  raises_invalid "compute above max_operand" (of_op (Ops.Compute (Program.max_operand + 1)));
  raises_invalid "barrier above max_operand" (of_op (Ops.Barrier max_int));
  (* Lines whose flat word index the packing cannot hold. *)
  let far = { Addr.line = max_line + 1; word = 0 } in
  raises_invalid "line too far" (of_op (Ops.Load far));
  raises_invalid "line too far (flat)" (fun () -> Program.flat far);
  raises_invalid "negative line" (of_op (Ops.Store ({ Addr.line = -1; word = 0 }, 1)));
  check_bool "the last line holds" true
    (Program.flat { Addr.line = max_line; word = Addr.words_per_line - 1 }
    <= Program.max_operand);
  (* Indices outside the tables a program is sealed over. *)
  let b = Program.builder () in
  Program.push b Program.Load 1 0;
  raises_invalid "address index" (fun () ->
      Program.make b ~addrs:[| Addr.make ~line:0 ~word:0 |] ~amos:[||]);
  let b = Program.builder () in
  Program.push b Program.Rmw 0 1;
  raises_invalid "AMO index" (fun () ->
      Program.make b ~addrs:[| Addr.make ~line:0 ~word:0 |] ~amos:[| Amo.Read |])

let tests =
  [
    QCheck_alcotest.to_alcotest ~long:false roundtrip_prop;
    test "far_line_interned" far_line_interned;
    test "out_of_range_refused" out_of_range_refused;
  ]
