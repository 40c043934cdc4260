(* Unit tests for spandex_mem: cache frames, MSHRs, store buffer, DRAM. *)

module Cache_frame = Spandex_mem.Cache_frame
module Mshr = Spandex_mem.Mshr
module Store_buffer = Spandex_mem.Store_buffer
module Dram = Spandex_mem.Dram
module Addr = Spandex_proto.Addr
module Mask = Spandex_util.Mask
module Engine = Spandex_sim.Engine
module Network = Spandex_net.Network
module Llc = Spandex.Llc
module Backing = Spandex.Backing
module Mesi_dir = Spandex_mesi.Mesi_dir

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ----- Cache_frame ------------------------------------------------------------ *)

let frame_insert_find () =
  let f = Cache_frame.create ~sets:4 ~ways:2 in
  (match Cache_frame.insert f ~line:0 "a" ~can_evict:(fun ~line:_ _ -> true) with
  | Cache_frame.Inserted -> ()
  | _ -> Alcotest.fail "expected Inserted");
  Alcotest.(check (option string)) "find" (Some "a") (Cache_frame.find f ~line:0);
  Alcotest.(check (option string)) "miss" None (Cache_frame.find f ~line:4);
  check_int "count" 1 (Cache_frame.count f)

let frame_lru_eviction () =
  let f = Cache_frame.create ~sets:1 ~ways:2 in
  let ins line v = ignore (Cache_frame.insert f ~line v ~can_evict:(fun ~line:_ _ -> true)) in
  ins 0 "a";
  ins 1 "b";
  Cache_frame.touch f ~line:0;
  (* line 1 is now LRU. *)
  (match Cache_frame.insert f ~line:2 "c" ~can_evict:(fun ~line:_ _ -> true) with
  | Cache_frame.Evicted (1, "b") -> ()
  | Cache_frame.Evicted (l, _) -> Alcotest.failf "evicted line %d, expected 1" l
  | _ -> Alcotest.fail "expected eviction");
  check_bool "victim gone" true (Cache_frame.find f ~line:1 = None);
  check_bool "touched survives" true (Cache_frame.find f ~line:0 <> None)

let frame_pinning () =
  let f = Cache_frame.create ~sets:1 ~ways:2 in
  let ins line v p =
    Cache_frame.insert f ~line v ~can_evict:(fun ~line:l _ -> not (List.mem l p))
  in
  ignore (ins 0 "a" []);
  ignore (ins 1 "b" []);
  (* Both pinned: no room. *)
  (match ins 2 "c" [ 0; 1 ] with
  | Cache_frame.No_room -> ()
  | _ -> Alcotest.fail "expected No_room");
  (* Only line 0 evictable. *)
  (match ins 2 "c" [ 1 ] with
  | Cache_frame.Evicted (0, "a") -> ()
  | _ -> Alcotest.fail "expected eviction of line 0")

let frame_sets_disjoint () =
  (* Lines mapping to different sets never evict each other. *)
  let f = Cache_frame.create ~sets:4 ~ways:1 in
  let ins line = ignore (Cache_frame.insert f ~line line ~can_evict:(fun ~line:_ _ -> true)) in
  ins 0;
  ins 1;
  ins 2;
  ins 3;
  check_int "all resident" 4 (Cache_frame.count f);
  (match Cache_frame.insert f ~line:4 4 ~can_evict:(fun ~line:_ _ -> true) with
  | Cache_frame.Evicted (0, _) -> () (* 4 mod 4 = set 0 *)
  | _ -> Alcotest.fail "expected conflict eviction of line 0");
  check_bool "other sets untouched" true
    (Cache_frame.find f ~line:1 <> None
    && Cache_frame.find f ~line:2 <> None
    && Cache_frame.find f ~line:3 <> None)

let frame_remove_iter () =
  let f = Cache_frame.create ~sets:2 ~ways:2 in
  let ins line = ignore (Cache_frame.insert f ~line line ~can_evict:(fun ~line:_ _ -> true)) in
  ins 0;
  ins 1;
  ins 2;
  Cache_frame.remove f ~line:1;
  check_int "count after remove" 2 (Cache_frame.count f);
  let sum = Cache_frame.fold f ~init:0 ~f:(fun acc ~line:_ v -> acc + v) in
  check_int "fold" 2 sum;
  Cache_frame.remove f ~line:1 (* idempotent *);
  check_int "still 2" 2 (Cache_frame.count f)

let frame_size_lines () =
  let sets, ways = Cache_frame.size_lines ~bytes:(32 * 1024) ~ways:8 in
  check_int "sets" 64 sets;
  check_int "ways" 8 ways

(* A list-based LRU model of a frame, the oracle for [frame_matches_model]:
   each set is a list of (line, metadata), most recently used first. *)
module Model = struct
  type t = { sets : int; ways : int; members : (int * int) list array }

  let create ~sets ~ways = { sets; ways; members = Array.make sets [] }
  let find m ~line = List.assoc_opt line m.members.(line mod m.sets)

  let remove m ~line =
    let s = line mod m.sets in
    m.members.(s) <- List.remove_assoc line m.members.(s)

  let add m ~line v =
    let s = line mod m.sets in
    m.members.(s) <- (line, v) :: m.members.(s)

  let touch m ~line =
    Option.iter (fun v -> remove m ~line; add m ~line v) (find m ~line)

  let lru m ~set_line ~f =
    List.fold_left
      (fun lru (line, v) -> if f ~line v then Some (line, v) else lru)
      None m.members.(set_line mod m.sets)

  let insert m ~line v ~can_evict : int Cache_frame.insert_result =
    if List.length m.members.(line mod m.sets) < m.ways then begin
      add m ~line v;
      Inserted
    end
    else
      match lru m ~set_line:line ~f:can_evict with
      | None -> No_room
      | Some (victim, vv) ->
        remove m ~line:victim;
        add m ~line v;
        Evicted (victim, vv)

  let resident m = List.sort compare (List.concat (Array.to_list m.members))
end

type frame_op =
  | Insert of int * int list  (** line, and the lines [can_evict] pins *)
  | Touch of int
  | Remove of int
  | Lru of int * int  (** set line, and [k] in the predicate below *)

let max_line = 15

let show_frame_op = function
  | Insert (l, pins) ->
    Printf.sprintf "insert %d pins [%s]" l
      (String.concat "," (List.map string_of_int pins))
  | Touch l -> Printf.sprintf "touch %d" l
  | Remove l -> Printf.sprintf "remove %d" l
  | Lru (l, k) -> Printf.sprintf "lru %d k=%d" l k

let gen_frame_case =
  let open QCheck2.Gen in
  let line = int_bound max_line in
  let op =
    frequency
      [
        (3, map2 (fun l pins -> Insert (l, pins)) line (list_size (int_bound 3) line));
        (1, map (fun l -> Touch l) line);
        (1, map (fun l -> Remove l) line);
        (1, map2 (fun l k -> Lru (l, k)) line (int_range 1 3));
      ]
  in
  triple (int_range 1 4) (int_range 1 4) (list_size (int_bound 80) op)

(* After every operation, every result and every observation of the frame
   (find, find_exn, fold, count, and each bank's fold and count for the
   bank counts dividing [sets]) equals the model's. *)
let frame_matches_model (sets, ways, ops) =
  let f = Cache_frame.create ~sets ~ways and m = Model.create ~sets ~ways in
  let agree what got want =
    if got <> want then QCheck2.Test.fail_reportf "%s differs from the model" what
  in
  let meta = ref 0 in
  let observe () =
    for line = 0 to max_line do
      let want = Model.find m ~line in
      agree "find" (Cache_frame.find f ~line) want;
      agree "find_exn"
        (match Cache_frame.find_exn f ~line with
        | v -> Some v
        | exception Not_found -> None)
        want
    done;
    let resident = Model.resident m in
    let sorted_fold fold =
      List.sort compare (fold ~init:[] ~f:(fun acc ~line v -> (line, v) :: acc))
    in
    agree "fold" (sorted_fold (Cache_frame.fold f)) resident;
    agree "count" (Cache_frame.count f) (List.length resident);
    List.iter
      (fun banks ->
        if sets mod banks = 0 then
          for b = 0 to banks - 1 do
            let want = List.filter (fun (line, _) -> line mod banks = b) resident in
            agree "fold_bank" (sorted_fold (Cache_frame.fold_bank f ~banks b)) want;
            agree "count_bank" (Cache_frame.count_bank f ~banks b) (List.length want)
          done)
      [ 1; 2; 3; 4 ]
  in
  List.iter
    (fun op ->
      (match op with
      | Insert (line, pins) ->
        if Model.find m ~line = None then begin
          incr meta;
          let can_evict ~line _ = not (List.mem line pins) in
          agree "insert"
            (Cache_frame.insert f ~line !meta ~can_evict)
            (Model.insert m ~line !meta ~can_evict)
        end
      | Touch line ->
        Cache_frame.touch f ~line;
        Model.touch m ~line
      | Remove line ->
        Cache_frame.remove f ~line;
        Model.remove m ~line
      | Lru (set_line, k) ->
        let p ~line v = (line + v) mod k = 0 in
        agree "lru_matching"
          (Cache_frame.lru_matching f ~set_line ~f:p)
          (Model.lru m ~set_line ~f:p));
      observe ())
    ops;
  true

let frame_model_prop =
  QCheck2.Test.make ~name:"frame_matches_model" ~count:500
    ~print:(fun (sets, ways, ops) ->
      Printf.sprintf "sets %d ways %d: %s" sets ways
        (String.concat "; " (List.map show_frame_op ops)))
    gen_frame_case frame_matches_model

(* The banked homes share one frame, so they refuse a bank count that
   does not divide the set count. *)
let frame_banks_must_divide_sets () =
  let engine = Engine.create () in
  let net = Network.create engine (Network.flat_topology ~latency:2) in
  let dram = Dram.create engine ~latency:5 ~service_interval:0 in
  let refused what create =
    match create () with
    | () -> Alcotest.failf "%s accepted a bad bank count" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun banks ->
      refused "Llc.create" (fun () ->
          ignore
            (Llc.create ~name:"llc" engine net (Backing.dram engine dram)
               {
                 Llc.llc_id = 10;
                 banks;
                 sets = 16;
                 ways = 4;
                 access_latency = 1;
                 is_mesi = (fun _ -> false);
                 reqs_policy = Llc.Reqs_auto;
               }));
      refused "Mesi_dir.create" (fun () ->
          ignore
            (Mesi_dir.create ~name:"dir" engine net dram
               { Mesi_dir.dir_id = 20; banks; sets = 16; ways = 4; access_latency = 1 })))
    [ 0; 3; 32 ]

(* Allocation pins ({!Helpers.check_flat}) on a full 64-set, 4-way frame
   holding lines 0..255. *)
let always ~line:_ _ = true

let full_frame () =
  let f = Cache_frame.create ~sets:64 ~ways:4 in
  for line = 0 to 255 do
    ignore (Cache_frame.insert f ~line 0 ~can_evict:always : int Cache_frame.insert_result)
  done;
  f

(* [n] rounds of find_exn, touch, remove, and insert into the freed way. *)
let frame_hit_words n =
  let f = full_frame () in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    let line = i land 255 in
    ignore (Cache_frame.find_exn f ~line : int);
    Cache_frame.touch f ~line;
    Cache_frame.remove f ~line;
    match Cache_frame.insert f ~line i ~can_evict:always with
    | Cache_frame.Inserted -> ()
    | Cache_frame.Evicted _ | Cache_frame.No_room -> Alcotest.fail "expected a free way"
  done;
  Gc.minor_words () -. w0

(* [n] inserts of new lines, each evicting its set's LRU line. *)
let frame_evict_words n =
  let f = full_frame () in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    match Cache_frame.insert f ~line:(255 + i) i ~can_evict:always with
    | Cache_frame.Evicted _ -> ()
    | Cache_frame.Inserted | Cache_frame.No_room -> Alcotest.fail "expected an eviction"
  done;
  Gc.minor_words () -. w0

let frame_hits_allocation_free () =
  Helpers.check_flat "find_exn/touch/remove/insert into a free way"
    ~words:frame_hit_words

(* An eviction allocates its [Evicted] block (header and two fields) and
   nothing else. *)
let frame_eviction_allocates_result_only () =
  Helpers.check_flat ~per_item:3 "insert with eviction" ~words:frame_evict_words

(* ----- Mshr --------------------------------------------------------------------- *)

let mshr_alloc_free () =
  let m = Mshr.create ~capacity:2 () in
  let t1 = Option.get (Mshr.alloc m "a") in
  let t2 = Option.get (Mshr.alloc m "b") in
  check_bool "full" true (Mshr.is_full m);
  check_bool "alloc fails when full" true (Mshr.alloc m "c" = None);
  Alcotest.(check (option string)) "find" (Some "a") (Mshr.find m ~txn:t1);
  Mshr.free m ~txn:t1;
  check_bool "not full" false (Mshr.is_full m);
  Alcotest.(check (option string)) "freed" None (Mshr.find m ~txn:t1);
  Mshr.free m ~txn:t2;
  check_int "empty" 0 (Mshr.count m)

let mshr_find_first_oldest () =
  let m = Mshr.create ~capacity:8 () in
  let t1 = Option.get (Mshr.alloc m 10) in
  let t2 = Option.get (Mshr.alloc m 20) in
  let _t3 = Option.get (Mshr.alloc m 21) in
  (* A younger entry reuses slot 0, so slot order is not age order. *)
  Mshr.free m ~txn:t1;
  let _t4 = Option.get (Mshr.alloc m 22) in
  let at_least lo _ v = v >= lo in
  check_int "oldest matching" 20 (Mshr.find_first_exn m 20 0 ~f:at_least);
  Mshr.free m ~txn:t2;
  check_int "next oldest once freed" 21
    (Mshr.find_first_exn m 20 0 ~f:at_least);
  check_bool "no match raises" true
    (match Mshr.find_first_exn m 30 0 ~f:at_least with
    | _ -> false
    | exception Not_found -> true)

(* ----- Store_buffer --------------------------------------------------------------- *)

let sb_coalesce () =
  let sb = Store_buffer.create ~capacity:4 in
  let a w = Addr.make ~line:3 ~word:w in
  check_bool "new" true (Store_buffer.push sb ~addr:(a 0) ~value:1 ~now:0 = `New);
  check_bool "coalesced" true (Store_buffer.push sb ~addr:(a 5) ~value:2 ~now:0 = `Coalesced);
  check_bool "overwrite coalesces" true (Store_buffer.push sb ~addr:(a 0) ~value:9 ~now:0 = `Coalesced);
  check_int "one entry" 1 (Store_buffer.count sb);
  Alcotest.(check (option int)) "forward latest" (Some 9)
    (Store_buffer.forward sb ~addr:(a 0));
  Alcotest.(check (option int)) "no forward for unwritten" None
    (Store_buffer.forward sb ~addr:(a 1))

let sb_capacity_and_fifo () =
  let sb = Store_buffer.create ~capacity:2 in
  let a line = Addr.make ~line ~word:0 in
  ignore (Store_buffer.push sb ~addr:(a 0) ~value:1 ~now:0);
  ignore (Store_buffer.push sb ~addr:(a 1) ~value:2 ~now:0);
  check_bool "full" true (Store_buffer.push sb ~addr:(a 2) ~value:3 ~now:0 = `Full);
  check_bool "coalescing still allowed when full" true
    (Store_buffer.push sb ~addr:(Addr.make ~line:0 ~word:3) ~value:4 ~now:0 = `Coalesced);
  let e = Store_buffer.take_oldest_exn sb in
  check_int "fifo order" 0 e.Store_buffer.line;
  check_int "coalesced mask" 2 (Mask.count e.Store_buffer.mask);
  let e2 = Store_buffer.take_oldest_exn sb in
  check_int "second" 1 e2.Store_buffer.line;
  check_bool "drained" true (Store_buffer.is_empty sb)

let sb_peek_and_remove () =
  let sb = Store_buffer.create ~capacity:4 in
  ignore (Store_buffer.push sb ~addr:(Addr.make ~line:7 ~word:1) ~value:5 ~now:0);
  check_int "peek line" 7 (Store_buffer.peek_oldest_exn sb).Store_buffer.line;
  check_int "peek does not remove" 1 (Store_buffer.count sb);
  check_int "take line" 7 (Store_buffer.take_oldest_exn sb).Store_buffer.line;
  check_bool "removed" true (Store_buffer.is_empty sb);
  Alcotest.check_raises "peek empty" Not_found (fun () ->
      ignore (Store_buffer.peek_oldest_exn sb));
  Alcotest.check_raises "take empty" Not_found (fun () ->
      ignore (Store_buffer.take_oldest_exn sb))

(* ----- Dram ------------------------------------------------------------------------- *)

let dram_read_write () =
  let engine = Engine.create () in
  let dram = Dram.create engine ~latency:10 ~service_interval:0 in
  let got = ref None in
  Dram.read_line dram ~line:5 ~k:(fun values -> got := Some values.(3));
  ignore (Engine.run_all engine);
  check_int "initial contents" (Spandex_proto.Linedata.init_word ~line:5 ~word:3)
    (Option.get !got);
  Dram.write_words dram ~line:5 ~mask:(Mask.singleton 3) ~values:[| 42 |];
  check_int "peek after write" 42 (Dram.peek_word dram (Addr.make ~line:5 ~word:3));
  check_int "reads counted" 1 (Dram.reads dram);
  check_int "writes counted" 1 (Dram.writes dram)

let dram_latency_and_bandwidth () =
  let engine = Engine.create () in
  let dram = Dram.create engine ~latency:10 ~service_interval:4 in
  let t1 = ref 0 and t2 = ref 0 in
  Dram.read_line dram ~line:0 ~k:(fun _ -> t1 := Engine.now engine);
  Dram.read_line dram ~line:1 ~k:(fun _ -> t2 := Engine.now engine);
  ignore (Engine.run_all engine);
  check_int "first after latency" 10 !t1;
  check_int "second queued behind service interval" 14 !t2

let dram_copy_isolated () =
  (* The callback receives a copy; mutating it must not corrupt memory. *)
  let engine = Engine.create () in
  let dram = Dram.create engine ~latency:1 ~service_interval:0 in
  Dram.read_line dram ~line:2 ~k:(fun values -> values.(0) <- 12345);
  ignore (Engine.run_all engine);
  check_bool "backing unchanged" true
    (Dram.peek_word dram (Addr.make ~line:2 ~word:0) <> 12345)

let tests =
  [
    test "frame_insert_find" frame_insert_find;
    test "frame_lru_eviction" frame_lru_eviction;
    test "frame_pinning" frame_pinning;
    test "frame_sets_disjoint" frame_sets_disjoint;
    test "frame_remove_iter" frame_remove_iter;
    test "frame_size_lines" frame_size_lines;
    QCheck_alcotest.to_alcotest ~long:false frame_model_prop;
    test "frame_banks_must_divide_sets" frame_banks_must_divide_sets;
    test "frame_hits_allocation_free" frame_hits_allocation_free;
    test "frame_eviction_allocates_result_only" frame_eviction_allocates_result_only;
    test "mshr_alloc_free" mshr_alloc_free;
    test "mshr_find_first_oldest" mshr_find_first_oldest;
    test "sb_coalesce" sb_coalesce;
    test "sb_capacity_and_fifo" sb_capacity_and_fifo;
    test "sb_peek_and_remove" sb_peek_and_remove;
    test "dram_read_write" dram_read_write;
    test "dram_latency_and_bandwidth" dram_latency_and_bandwidth;
    test "dram_copy_isolated" dram_copy_isolated;
  ]
