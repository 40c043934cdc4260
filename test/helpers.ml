(* Shared test utilities. *)

module Addr = Spandex_proto.Addr
module Amo = Spandex_proto.Amo
module Ops = Spandex_device.Ops
module Program = Spandex_device.Program
module Config = Spandex_system.Config
module Params = Spandex_system.Params
module Run = Spandex_system.Run
module Workload = Spandex_system.Workload

let w i = Addr.line_of_word_index i

(* A workload of hand-built op arrays, one per CPU core and per warp. *)
let workload ?(name = "test") ?(barriers = [||]) ~cpu ~gpu () =
  {
    Workload.name;
    cpu_programs = Array.map Program.of_ops cpu;
    gpu_programs = Array.map (Array.map Program.of_ops) gpu;
    barrier_parties = barriers;
    region_of = (fun _ -> 0);
  }

let simulate ?params config wl =
  let r = Run.simulate ?params ~config wl in
  Run.assert_clean r;
  r

let run_all_configs ?params wl =
  List.map (fun c -> (c, simulate ?params c wl)) Config.all

let check_all_configs ?params wl =
  List.iter (fun c -> ignore (simulate ?params c wl)) Config.all

let test name f = Alcotest.test_case name `Quick f

(* [contains ~sub s]: naive substring test, enough for error messages. *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* A minimal JSON syntax checker: validates structure without building
   values, enough to catch escaping and comma/bracket bugs in exporters
   without a JSON dependency. *)
let json_valid s =
  let n = String.length s in
  let i = ref 0 in
  let peek () = if !i < n then Some s.[!i] else None in
  let skip_ws () =
    while !i < n && (s.[!i] = ' ' || s.[!i] = '\n' || s.[!i] = '\t' || s.[!i] = '\r') do
      incr i
    done
  in
  let fail = ref false in
  let expect c = if !i < n && s.[!i] = c then incr i else fail := true in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail := true
  and lit l =
    if !i + String.length l <= n && String.sub s !i (String.length l) = l then
      i := !i + String.length l
    else fail := true
  and number () =
    if peek () = Some '-' then incr i;
    let digits = ref 0 in
    while (not !fail) && !i < n && (match s.[!i] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false) do
      incr digits;
      incr i
    done;
    if !digits = 0 then fail := true
  and string_lit () =
    expect '"';
    let closed = ref false in
    while (not !fail) && (not !closed) && !i < n do
      (match s.[!i] with
      | '\\' -> incr i (* skip the escaped char below *)
      | '"' -> closed := true
      | c when Char.code c < 0x20 -> fail := true
      | _ -> ());
      incr i
    done;
    if not !closed then fail := true
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr i
    else begin
      let continue = ref true in
      while (not !fail) && !continue do
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr i
        | Some ']' ->
          incr i;
          continue := false
        | _ ->
          fail := true;
          continue := false
      done
    end
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr i
    else begin
      let continue = ref true in
      while (not !fail) && !continue do
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr i
        | Some '}' ->
          incr i;
          continue := false
        | _ ->
          fail := true;
          continue := false
      done
    end
  in
  value ();
  skip_ws ();
  (not !fail) && !i = n

(* Small but not tiny: exercises the protocols without long runtimes. *)
let quick_params =
  {
    Params.default with
    Params.cpu_cores = 2;
    gpu_cus = 2;
    warps_per_cu = 2;
    mem_latency = 40;
  }

(* An allocation pin measures one scenario at [n] and [2n] items and
   compares the minor words each run allocated: fixed costs (the run
   loop's closure, the measurement's own float) cancel, and what is left
   is [n] times the per-item cost.  [check_flat] wants that cost to be
   [per_item] words (default 0) to within a tenth of a word. *)
let pin_n = 2_000

let check_flat ?(per_item = 0) what ~words =
  let d = words (2 * pin_n) -. words pin_n in
  if Float.abs (d -. float_of_int (per_item * pin_n)) >= float_of_int (pin_n / 10)
  then
    Alcotest.failf "%s: %d more items allocated %.0f more minor words, not %d"
      what pin_n d (per_item * pin_n)
