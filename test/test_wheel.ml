(* Unit and property tests for the timing-wheel scheduler, mirroring the
   Pqueue suite: sort order, FIFO tie-break among equal cycles, the
   overflow-heap handoff for far-future times, and engine-level
   equivalence between the wheel and heap backends on identical random
   schedules.  Everything pops through [min_time]/[pop_min], the pair the
   engine's event loop uses. *)

module Wheel = Spandex_util.Wheel
module Pqueue = Spandex_util.Pqueue
module Rng = Spandex_util.Rng
module Engine = Spandex_sim.Engine

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Tiny horizon so bounded random times routinely land in the overflow
   heap; correctness must not depend on which tier held an event. *)
let small_wheel () = Wheel.create ~horizon:16 ~dummy:(-1) ()

(* Pop everything, returning (time, value) pairs in pop order. *)
let drain q =
  let rec go acc =
    if Wheel.is_empty q then List.rev acc
    else
      let t = Wheel.min_time q in
      let v = Wheel.pop_min q in
      go ((t, v) :: acc)
  in
  go []

let wheel_ordering () =
  let q = Wheel.create ~dummy:"" () in
  Wheel.push q ~time:5 "c";
  Wheel.push q ~time:1 "a";
  Wheel.push q ~time:3 "b";
  Alcotest.(check int) "peek" 1 (Wheel.next_time q);
  Alcotest.(check (list (pair int string)))
    "sorted" [ (1, "a"); (3, "b"); (5, "c") ] (drain q);
  Alcotest.(check int) "idle peek" max_int (Wheel.next_time q)

let wheel_fifo_ties () =
  let q = Wheel.create ~dummy:0 () in
  List.iter (fun v -> Wheel.push q ~time:7 v) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ -> Wheel.pop_min q) in
  Alcotest.(check (list int)) "fifo among equal times" [ 1; 2; 3; 4 ] order

let wheel_empty_raises () =
  let q = Wheel.create ~dummy:0 () in
  Alcotest.check_raises "min_time empty"
    (Invalid_argument "Wheel.min_time: empty") (fun () ->
      ignore (Wheel.min_time q));
  Alcotest.check_raises "pop_min empty"
    (Invalid_argument "Wheel.pop_min: empty") (fun () ->
      ignore (Wheel.pop_min q))

let wheel_rejects_past () =
  let q = Wheel.create ~dummy:0 () in
  Wheel.push q ~time:10 1;
  ignore (Wheel.pop_min q);
  (* Cursor now sits at 10; scheduling into the past must be refused just
     like Engine.at refuses it. *)
  check_bool "past push raises" true
    (match Wheel.push q ~time:3 2 with
    | () -> false
    | exception Invalid_argument _ -> true)

let wheel_overflow_handoff () =
  (* Far-future events beyond the horizon go through the overflow heap and
     come back in order, interleaved with near events pushed later. *)
  let q = small_wheel () in
  Wheel.push q ~time:1000 1000;
  Wheel.push q ~time:40 40;
  check_int "both counted" 2 (Wheel.length q);
  check_int "overflow used" 2 (Wheel.overflow_pushes q);
  Wheel.push q ~time:3 3;
  let order =
    List.init 3 (fun _ ->
        let t = Wheel.min_time q in
        let v = Wheel.pop_min q in
        check_int "time matches value" t v;
        v)
  in
  Alcotest.(check (list int)) "sorted across tiers" [ 3; 40; 1000 ] order;
  check_bool "drained" true (Wheel.is_empty q)

let wheel_overflow_fifo_with_slots () =
  (* An overflow entry for cycle T always predates any direct slot push
     for T, so at T the overflow side must drain first. *)
  let q = small_wheel () in
  Wheel.push q ~time:100 1;  (* overflow: 100 >= 0 + 16 *)
  Wheel.push q ~time:90 0;   (* overflow *)
  ignore (Wheel.pop_min q);  (* pops 0 at 90; cursor at 90 *)
  Wheel.push q ~time:100 2;  (* slot: 100 - 90 < 16, pushed after 1 *)
  Alcotest.(check (list int))
    "overflow before slot at equal time" [ 1; 2 ]
    (List.init 2 (fun _ -> Wheel.pop_min q))

let wheel_props =
  let open QCheck2 in
  [
    Test.make ~name:"wheel_sorts_with_overflow"
      Gen.(list_size (int_bound 300) (int_bound 1000))
      (fun times ->
        let q = small_wheel () in
        List.iter (fun t -> Wheel.push q ~time:t t) times;
        List.map fst (drain q) = List.sort compare times);
    Test.make ~name:"wheel_fifo_tie_break"
      (* Few distinct times -> many ties; drained order must be the stable
         sort of the submissions, i.e. FIFO among equal times. *)
      Gen.(list_size (int_bound 300) (int_bound 4))
      (fun times ->
        let q = Wheel.create ~dummy:(-1) () in
        List.iteri (fun i t -> Wheel.push q ~time:t i) times;
        let expected =
          List.stable_sort
            (fun (a, _) (b, _) -> compare a b)
            (List.mapi (fun i t -> (t, i)) times)
        in
        drain q = expected);
    Test.make ~name:"wheel_matches_pqueue"
      (* The wheel and the reference heap must agree on every
         (time, value) sequence, whatever mix of tiers the times hit. *)
      Gen.(list_size (int_bound 300) (int_bound 2000))
      (fun times ->
        let q = small_wheel () in
        let h = Pqueue.create () in
        List.iteri
          (fun i t ->
            Wheel.push q ~time:t i;
            Pqueue.push h ~time:t i)
          times;
        let rec drain_h acc =
          if Pqueue.is_empty h then List.rev acc
          else
            let t = Pqueue.min_time h in
            drain_h ((t, Pqueue.pop_min h) :: acc)
        in
        drain q = drain_h []);
    Test.make ~name:"wheel_drain_reuse"
      Gen.(
        pair
          (list_size (int_bound 200) (int_bound 1000))
          (list_size (int_bound 200) (int_bound 1000)))
      (fun (first, second) ->
        (* Drain, then reuse from where the cursor stopped, as the engine
           does between bursts: the second batch must sort correctly. *)
        let q = small_wheel () in
        List.iter (fun t -> Wheel.push q ~time:t t) first;
        List.map fst (drain q) = List.sort compare first
        &&
        let base = Wheel.current_time q in
        List.iter (fun t -> Wheel.push q ~time:(base + t) t) second;
        List.map snd (drain q) = List.sort compare second);
  ]

let wheel_interleaved () =
  (* Interleave pushes and pops; popped times must be non-decreasing given
     pushes never go into the past.  Push offsets straddle the horizon so
     both tiers stay busy. *)
  let rng = Rng.create ~seed:3 in
  let q = small_wheel () in
  let now = ref 0 in
  for _ = 1 to 1000 do
    if Rng.int rng 2 = 1 || Wheel.is_empty q then
      Wheel.push q ~time:(!now + Rng.int rng 50) 0
    else begin
      let t = Wheel.min_time q in
      ignore (Wheel.pop_min q);
      check_bool "monotone" true (t >= !now);
      now := t
    end
  done;
  check_bool "overflow exercised" true (Wheel.overflow_pushes q > 0)

(* ----- engine vs reference scheduler --------------------------------------- *)

(* A self-expanding schedule run on the engine and on an in-test reference
   scheduler — a list kept sorted by (time, push order) — must produce the
   same execution trace (cycle, label).  Each handler deterministically
   schedules follow-ups from its own seeded stream, including far-future
   delays that only the wheel's overflow heap can serve. *)
let engine_backends_agree () =
  let run ~now ~schedule ~drain =
    let rng = Rng.create ~seed:42 in
    let log = ref [] in
    let rec work depth label () =
      log := (now (), label) :: !log;
      if depth < 4 then
        let fanout = Rng.int rng 3 in
        for i = 0 to fanout - 1 do
          let delay =
            match Rng.int rng 4 with
            | 0 -> 0
            | 1 -> Rng.int rng 8
            | 2 -> Rng.int rng 100
            | _ -> 400 + Rng.int rng 2000  (* beyond the wheel horizon *)
          in
          schedule ~delay (work (depth + 1) ((label * 10) + i))
        done
    in
    for root = 0 to 19 do
      schedule ~delay:(Rng.int rng 600) (work 0 root)
    done;
    drain ();
    List.rev !log
  in
  let engine =
    let e = Engine.create () in
    run
      ~now:(fun () -> Engine.now e)
      ~schedule:(fun ~delay f -> Engine.schedule e ~delay f)
      ~drain:(fun () -> ignore (Engine.run_all e : int))
  in
  let reference =
    (* Entries (time, push seq, thunk); insertion keeps the list sorted,
       so the head is always the next event. *)
    let time = ref 0 and seq = ref 0 and queue = ref [] in
    let schedule ~delay f =
      let key = (!time + delay, !seq) in
      incr seq;
      let rec insert = function
        | ((k, _) as x) :: rest when compare k key < 0 -> x :: insert rest
        | l -> (key, f) :: l
      in
      queue := insert !queue
    in
    let rec drain () =
      match !queue with
      | [] -> ()
      | ((t, _), f) :: rest ->
        queue := rest;
        time := t;
        f ();
        drain ()
    in
    run ~now:(fun () -> !time) ~schedule ~drain
  in
  check_bool "schedule expanded" true (List.length reference > 100);
  check_int "same event count" (List.length reference) (List.length engine);
  check_bool "identical traces" true (engine = reference)

let engine_overflow_order () =
  (* Far-future thunks (watchdog-beat distances) interleave correctly with
     a dense near-term stream. *)
  let e = Engine.create () in
  let log = ref [] in
  let mark label () = log := label :: !log in
  Engine.schedule e ~delay:100_000 (mark "far");
  Engine.schedule e ~delay:50_000 (mark "mid");
  for i = 0 to 9 do
    Engine.schedule e ~delay:i (mark (Printf.sprintf "near%d" i))
  done;
  ignore (Engine.run_all e : int);
  Alcotest.(check (list string))
    "overflow events last, in order"
    (List.init 10 (Printf.sprintf "near%d") @ [ "mid"; "far" ])
    (List.rev !log)

let tests =
  [
    test "wheel_ordering" wheel_ordering;
    test "wheel_fifo_ties" wheel_fifo_ties;
    test "wheel_empty_raises" wheel_empty_raises;
    test "wheel_rejects_past" wheel_rejects_past;
    test "wheel_overflow_handoff" wheel_overflow_handoff;
    test "wheel_overflow_fifo_with_slots" wheel_overflow_fifo_with_slots;
    test "wheel_interleaved" wheel_interleaved;
    test "engine_backends_agree" engine_backends_agree;
    test "engine_overflow_order" engine_overflow_order;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) wheel_props
