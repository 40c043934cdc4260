(* Unit and property tests for spandex_util. *)

module Mask = Spandex_util.Mask
module Pqueue = Spandex_util.Pqueue
module Rng = Spandex_util.Rng
module Stats = Spandex_util.Stats

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ----- Mask ------------------------------------------------------------- *)

let mask_basics () =
  check_int "empty count" 0 (Mask.count Mask.empty);
  check_int "full 16" 16 (Mask.count (Mask.full ~words:16));
  check_bool "mem singleton" true (Mask.mem (Mask.singleton 5) 5);
  check_bool "not mem" false (Mask.mem (Mask.singleton 5) 6);
  check_int "add" 2 (Mask.count (Mask.add (Mask.singleton 0) 15));
  check_int "remove" 0 (Mask.count (Mask.remove (Mask.singleton 3) 3));
  check_bool "subset" true (Mask.subset (Mask.singleton 2) (Mask.full ~words:16));
  check_bool "not subset" false (Mask.subset (Mask.full ~words:16) (Mask.singleton 2))

let mask_iter_order () =
  let m = Mask.of_list [ 14; 2; 7; 0 ] in
  Alcotest.(check (list int)) "sorted order" [ 0; 2; 7; 14 ] (Mask.to_list m)

let mask_pp () =
  let s = Format.asprintf "%a" (Mask.pp ~words:8) (Mask.of_list [ 0; 7 ]) in
  Alcotest.(check string) "pp" "10000001" s

let mask_gen = QCheck2.Gen.int_bound 0xFFFF

let mask_props =
  [
    QCheck2.Test.make ~name:"union_comm" QCheck2.Gen.(pair mask_gen mask_gen)
      (fun (a, b) -> Mask.equal (Mask.union a b) (Mask.union b a));
    QCheck2.Test.make ~name:"inter_subset" QCheck2.Gen.(pair mask_gen mask_gen)
      (fun (a, b) -> Mask.subset (Mask.inter a b) a);
    QCheck2.Test.make ~name:"diff_disjoint" QCheck2.Gen.(pair mask_gen mask_gen)
      (fun (a, b) -> Mask.is_empty (Mask.inter (Mask.diff a b) b));
    QCheck2.Test.make ~name:"count_union_inter"
      QCheck2.Gen.(pair mask_gen mask_gen) (fun (a, b) ->
        Mask.count (Mask.union a b) + Mask.count (Mask.inter a b)
        = Mask.count a + Mask.count b);
    QCheck2.Test.make ~name:"of_to_list_roundtrip" mask_gen (fun m ->
        Mask.equal m (Mask.of_list (Mask.to_list m)));
    QCheck2.Test.make ~name:"fold_counts" mask_gen (fun m ->
        Mask.fold m ~init:0 ~f:(fun acc _ -> acc + 1) = Mask.count m);
  ]

(* Reference model: a plain int set must agree with every set-algebra
   operation on masks. *)
module ISet = Set.Make (Int)

let model m = ISet.of_list (Mask.to_list m)
let mask_of_model s = Mask.of_list (ISet.elements s)
let full16 = Mask.full ~words:16
let word_gen = QCheck2.Gen.int_bound 15

let mask_model_props =
  [
    QCheck2.Test.make ~name:"union_vs_model"
      QCheck2.Gen.(pair mask_gen mask_gen)
      (fun (a, b) ->
        Mask.equal (Mask.union a b) (mask_of_model (ISet.union (model a) (model b))));
    QCheck2.Test.make ~name:"inter_vs_model"
      QCheck2.Gen.(pair mask_gen mask_gen)
      (fun (a, b) ->
        Mask.equal (Mask.inter a b) (mask_of_model (ISet.inter (model a) (model b))));
    QCheck2.Test.make ~name:"diff_vs_model"
      QCheck2.Gen.(pair mask_gen mask_gen)
      (fun (a, b) ->
        Mask.equal (Mask.diff a b) (mask_of_model (ISet.diff (model a) (model b))));
    QCheck2.Test.make ~name:"complement_roundtrip" mask_gen (fun m ->
        Mask.equal m (Mask.diff full16 (Mask.diff full16 m)));
    QCheck2.Test.make ~name:"complement_partitions" mask_gen (fun m ->
        let co = Mask.diff full16 m in
        Mask.is_empty (Mask.inter m co)
        && Mask.equal (Mask.union m co) full16);
    QCheck2.Test.make ~name:"set_get_agreement"
      QCheck2.Gen.(pair mask_gen word_gen)
      (fun (m, w) ->
        Mask.mem (Mask.add m w) w
        && (not (Mask.mem (Mask.remove m w) w))
        && Mask.mem m w = ISet.mem w (model m)
        && Mask.equal (Mask.add m w) (mask_of_model (ISet.add w (model m)))
        && Mask.equal (Mask.remove m w)
             (mask_of_model (ISet.remove w (model m))));
    QCheck2.Test.make ~name:"per_word_union_inter"
      QCheck2.Gen.(pair (pair mask_gen mask_gen) word_gen)
      (fun ((a, b), w) ->
        Mask.mem (Mask.union a b) w = (Mask.mem a w || Mask.mem b w)
        && Mask.mem (Mask.inter a b) w = (Mask.mem a w && Mask.mem b w)
        && Mask.mem (Mask.diff a b) w = (Mask.mem a w && not (Mask.mem b w)));
  ]

(* ----- Pqueue ------------------------------------------------------------ *)

(* Drain through [min_time]/[pop_min], returning (time, value) pairs. *)
let drain_min q =
  let rec go acc =
    if Pqueue.is_empty q then List.rev acc
    else
      let t = Pqueue.min_time q in
      let v = Pqueue.pop_min q in
      go ((t, v) :: acc)
  in
  go []

let pqueue_ordering () =
  let q = Pqueue.create () in
  Pqueue.push q ~time:5 "c";
  Pqueue.push q ~time:1 "a";
  Pqueue.push q ~time:3 "b";
  check_int "peek" 1 (Pqueue.min_time q);
  Alcotest.(check (list (pair int string)))
    "sorted" [ (1, "a"); (3, "b"); (5, "c") ] (drain_min q)

let pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.push q ~time:7 v) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ -> Pqueue.pop_min q) in
  Alcotest.(check (list int)) "fifo among equal times" [ 1; 2; 3; 4 ] order

let pqueue_prop =
  QCheck2.Test.make ~name:"pqueue_sorts"
    QCheck2.Gen.(list_size (int_bound 200) (int_bound 1000))
    (fun times ->
      let q = Pqueue.create () in
      List.iter (fun t -> Pqueue.push q ~time:t t) times;
      List.map snd (drain_min q) = List.sort compare times)

let pqueue_alloc_free_api () =
  (* min_time/pop_min must raise on empty and agree with each other. *)
  let q = Pqueue.create ~capacity:1 () in
  Alcotest.check_raises "min_time empty"
    (Invalid_argument "Pqueue.min_time: empty") (fun () ->
      ignore (Pqueue.min_time q));
  Alcotest.check_raises "pop_min empty"
    (Invalid_argument "Pqueue.pop_min: empty") (fun () ->
      ignore (Pqueue.pop_min q));
  List.iter (fun (t, v) -> Pqueue.push q ~time:t v) [ (9, "z"); (2, "a"); (5, "m") ];
  check_int "min_time" 2 (Pqueue.min_time q);
  Alcotest.(check string) "pop_min" "a" (Pqueue.pop_min q);
  check_int "min_time after pop" 5 (Pqueue.min_time q);
  Alcotest.(check string) "pop_min 2" "m" (Pqueue.pop_min q);
  Alcotest.(check string) "pop_min 3" "z" (Pqueue.pop_min q);
  check_bool "empty again" true (Pqueue.is_empty q)

let pqueue_props =
  let open QCheck2 in
  [
    Test.make ~name:"pqueue_pop_min_sorts"
      Gen.(list_size (int_bound 300) (int_bound 1000))
      (fun times ->
        let q = Pqueue.create ~capacity:1 () in
        List.iter (fun t -> Pqueue.push q ~time:t t) times;
        List.map fst (drain_min q) = List.sort compare times);
    Test.make ~name:"pqueue_fifo_tie_break"
      (* Few distinct times -> many ties; drained order must be the stable
         sort of the submissions, i.e. FIFO among equal times. *)
      Gen.(list_size (int_bound 300) (int_bound 4))
      (fun times ->
        let q = Pqueue.create () in
        List.iteri (fun i t -> Pqueue.push q ~time:t i) times;
        let expected =
          List.stable_sort
            (fun (a, _) (b, _) -> compare a b)
            (List.mapi (fun i t -> (t, i)) times)
        in
        drain_min q = expected);
    Test.make ~name:"pqueue_grow_drain_reuse"
      Gen.(
        pair
          (list_size (int_bound 200) (int_bound 1000))
          (list_size (int_bound 200) (int_bound 1000)))
      (fun (first, second) ->
        (* Grow from minimal capacity, drain, then reuse, as the wheel's
           overflow heap is: the second batch must sort correctly. *)
        let q = Pqueue.create ~capacity:1 () in
        List.iter (fun t -> Pqueue.push q ~time:t t) first;
        List.map fst (drain_min q) = List.sort compare first
        &&
        (List.iter (fun t -> Pqueue.push q ~time:t t) second;
         List.map fst (drain_min q) = List.sort compare second));
  ]

let pqueue_interleaved () =
  (* Interleave pushes and pops; popped times must be non-decreasing given
     pushes never go into the past. *)
  let rng = Rng.create ~seed:3 in
  let q = Pqueue.create () in
  let now = ref 0 in
  for _ = 1 to 1000 do
    if Rng.int rng 2 = 1 || Pqueue.is_empty q then
      Pqueue.push q ~time:(!now + Rng.int rng 50) ()
    else begin
      let t = Pqueue.min_time q in
      Pqueue.pop_min q;
      Alcotest.(check bool) "monotone" true (t >= !now);
      now := t
    end
  done

(* ----- Rng ---------------------------------------------------------------- *)

let rng_determinism () =
  let a = Rng.create ~seed:99 and b = Rng.create ~seed:99 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let rng_bounds () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17);
    let f = Rng.float r 2.5 in
    check_bool "float range" true (f >= 0.0 && f < 2.5)
  done

let rng_shuffle_permutes () =
  let r = Rng.create ~seed:11 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* ----- Stats ---------------------------------------------------------------- *)

let stats_counters () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.incr s "a";
  Stats.add s "b" 40;
  check_int "a" 2 (Stats.get s "a");
  check_int "b" 40 (Stats.get s "b");
  check_int "missing" 0 (Stats.get s "zzz");
  Stats.set_max s "m" 5;
  Stats.set_max s "m" 3;
  check_int "max keeps" 5 (Stats.get s "m")

let stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  Stats.add a "x" 1;
  Stats.add b "x" 2;
  let dst = Stats.create () in
  Stats.merge_into ~dst ~prefix:"one" a;
  Stats.merge_into ~dst ~prefix:"two" b;
  check_int "one.x" 1 (Stats.get dst "one.x");
  check_int "two.x" 2 (Stats.get dst "two.x");
  Alcotest.(check (list string)) "names sorted" [ "one.x"; "two.x" ] (Stats.names dst)

let stats_merge_max () =
  (* Regression: [merge_into] used to fold every counter with [add], so a
     [set_max] high-water mark merged on top of an existing value summed
     the two maxima — reporting an occupancy that never occurred.  Max
     counters must combine with max, and stay max-tagged in the
     destination for further merges. *)
  let a = Stats.create () and b = Stats.create () in
  Stats.set_max a "mshr.hwm" 7;
  Stats.add a "ops" 10;
  Stats.set_max b "mshr.hwm" 4;
  Stats.add b "ops" 5;
  let dst = Stats.create () in
  Stats.merge_into ~dst ~prefix:"l1" a;
  Stats.merge_into ~dst ~prefix:"l1" b;
  check_int "max of maxima, not sum" 7 (Stats.get dst "l1.mshr.hwm");
  check_int "additive still sums" 15 (Stats.get dst "l1.ops");
  (* The merged slot keeps the tag: a second-level merge is still max. *)
  let top = Stats.create () in
  Stats.merge_into ~dst:top ~prefix:"sys" dst;
  Stats.merge_into ~dst:top ~prefix:"sys" dst;
  check_int "re-merge stays max" 7 (Stats.get top "sys.l1.mshr.hwm");
  check_int "re-merge sums additive" 30 (Stats.get top "sys.l1.ops");
  (* Interned-key path tags the slot the same way. *)
  let c = Stats.create () in
  let k = Stats.key c "depth" in
  Stats.max_key c k 9;
  let d = Stats.create () in
  Stats.set_max d "depth" 6;
  let m = Stats.create () in
  Stats.merge_into ~dst:m ~prefix:"q" c;
  Stats.merge_into ~dst:m ~prefix:"q" d;
  check_int "max_key tags too" 9 (Stats.get m "q.depth")

let stats_interned_visibility () =
  let s = Stats.create () in
  let k = Stats.key s "quiet" in
  Alcotest.(check (list string)) "interned but untouched" [] (Stats.names s);
  Stats.bump s k;
  Alcotest.(check (list string)) "touched" [ "quiet" ] (Stats.names s);
  check_int "value" 1 (Stats.get s "quiet");
  check_bool "same slot on re-intern" true (Stats.key s "quiet" = k);
  Stats.incr s "quiet";
  check_int "string api shares the slot" 2 (Stats.get s "quiet")

let stats_get_prefixed () =
  let a = Stats.create () in
  Stats.add a "x.y" 3;
  let dst = Stats.create () in
  Stats.merge_into ~dst ~prefix:"n" a;
  check_int "get_prefixed" 3 (Stats.get_prefixed dst ~prefix:"n" "x.y");
  check_int "absent" 0 (Stats.get_prefixed dst ~prefix:"m" "x.y")

let stats_interned_agrees =
  (* The interned-key fast path and the string API must be observationally
     identical: same counters, same values, same visibility. *)
  QCheck2.Test.make ~name:"stats_interned_agrees"
    QCheck2.Gen.(list_size (int_bound 200) (pair (int_bound 4) (int_bound 20)))
    (fun ops ->
      let names = [| "alpha"; "beta"; "gamma"; "delta"; "eps" |] in
      let via_string = Stats.create () in
      let via_key = Stats.create () in
      let keys = Array.map (fun n -> Stats.key via_key n) names in
      List.iter
        (fun (i, v) ->
          Stats.add via_string names.(i) v;
          Stats.bump_by via_key keys.(i) v)
        ops;
      Stats.to_assoc via_string = Stats.to_assoc via_key
      && Stats.names via_string = Stats.names via_key
      && Array.for_all
           (fun n -> Stats.get via_string n = Stats.get via_key n)
           names)

let tests =
  [
    test "mask_basics" mask_basics;
    test "mask_iter_order" mask_iter_order;
    test "mask_pp" mask_pp;
    test "pqueue_ordering" pqueue_ordering;
    test "pqueue_fifo_ties" pqueue_fifo_ties;
    test "pqueue_alloc_free_api" pqueue_alloc_free_api;
    test "pqueue_interleaved" pqueue_interleaved;
    test "rng_determinism" rng_determinism;
    test "rng_bounds" rng_bounds;
    test "rng_shuffle_permutes" rng_shuffle_permutes;
    test "stats_counters" stats_counters;
    test "stats_merge" stats_merge;
    test "stats_merge_max" stats_merge_max;
    test "stats_interned_visibility" stats_interned_visibility;
    test "stats_get_prefixed" stats_get_prefixed;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      (mask_props @ mask_model_props @ [ pqueue_prop ] @ pqueue_props
      @ [ stats_interned_agrees ])
