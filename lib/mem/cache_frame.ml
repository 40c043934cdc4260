(* Set [s] is two arrays.  [ways.(s)] holds each way's line number (-1 for
   a free way) at [2w] and its last-use tick at [2w + 1]; [metas.(s)] holds
   its metadata at [w].  Both are [[||]] until the set's first insert. *)
type 'a t = {
  sets : int;
  nways : int;
  ways : int array array;
  metas : 'a array array;
  mutable tick : int;
  mutable resident : int;
}

let create ~sets ~ways =
  assert (sets > 0 && ways > 0);
  {
    sets;
    nways = ways;
    ways = Array.make sets [||];
    metas = Array.make sets [||];
    tick = 0;
    resident = 0;
  }

let size_lines ~bytes ~ways =
  let lines = bytes / Spandex_proto.Addr.line_bytes in
  assert (lines mod ways = 0);
  (lines / ways, ways)

(* The way of set array [a] holding [line], or -1.  Top level and
   annotated, so a lookup is a closure-free scan compared as ints. *)
let rec way_of (a : int array) (line : int) i =
  if i = Array.length a then -1
  else if a.(i) = line then i / 2
  else way_of a line (i + 2)

let find t ~line =
  let s = line mod t.sets in
  let w = way_of t.ways.(s) line 0 in
  if w < 0 then None else Some t.metas.(s).(w)

let find_exn t ~line =
  let s = line mod t.sets in
  let w = way_of t.ways.(s) line 0 in
  if w < 0 then raise_notrace Not_found else t.metas.(s).(w)

let touch t ~line =
  let s = line mod t.sets in
  let w = way_of t.ways.(s) line 0 in
  if w >= 0 then begin
    t.tick <- t.tick + 1;
    t.ways.(s).((2 * w) + 1) <- t.tick
  end

(* A freed way keeps its metadata until it is reused. *)
let remove t ~line =
  let s = line mod t.sets in
  let w = way_of t.ways.(s) line 0 in
  if w >= 0 then begin
    t.ways.(s).(2 * w) <- -1;
    t.resident <- t.resident - 1
  end

(* The occupied way of set [s] with the smallest tick among those
   satisfying [f], or -1.  Ticks are distinct, so the pick does not depend
   on way order. *)
let lru_way t s f =
  let a = t.ways.(s) and metas = t.metas.(s) in
  let best = ref (-1) in
  for w = 0 to Array.length metas - 1 do
    let line = a.(2 * w) in
    if line >= 0 && f ~line metas.(w)
       && (!best < 0 || a.((2 * w) + 1) < a.((2 * !best) + 1))
    then best := w
  done;
  !best

type 'a insert_result = Inserted | Evicted of int * 'a | No_room

let fill t s w line meta =
  t.tick <- t.tick + 1;
  t.ways.(s).(2 * w) <- line;
  t.ways.(s).((2 * w) + 1) <- t.tick;
  t.metas.(s).(w) <- meta

let insert t ~line meta ~can_evict =
  assert (line >= 0);
  let s = line mod t.sets in
  if Array.length t.metas.(s) = 0 then begin
    t.ways.(s) <- Array.make (2 * t.nways) (-1);
    t.metas.(s) <- Array.make t.nways meta
  end;
  assert (way_of t.ways.(s) line 0 < 0);
  let free = way_of t.ways.(s) (-1) 0 in
  if free >= 0 then begin
    t.resident <- t.resident + 1;
    fill t s free line meta;
    Inserted
  end
  else
    let w = lru_way t s can_evict in
    if w < 0 then No_room
    else begin
      let victim = Evicted (t.ways.(s).(2 * w), t.metas.(s).(w)) in
      fill t s w line meta;
      victim
    end

let lru_matching t ~set_line ~f =
  let s = set_line mod t.sets in
  let w = lru_way t s f in
  if w < 0 then None else Some (t.ways.(s).(2 * w), t.metas.(s).(w))

(* Resident lines of sets [first], [first + step], ..., in set then way
   order. *)
let fold_sets t ~first ~step ~init ~f =
  let acc = ref init in
  let s = ref first in
  while !s < t.sets do
    let a = t.ways.(!s) and metas = t.metas.(!s) in
    for w = 0 to Array.length metas - 1 do
      let line = a.(2 * w) in
      if line >= 0 then acc := f !acc ~line metas.(w)
    done;
    s := !s + step
  done;
  !acc

let fold t ~init ~f = fold_sets t ~first:0 ~step:1 ~init ~f

(* With [banks] dividing [sets], set [s] holds only lines ≡ s (mod banks),
   so bank [b] owns exactly the sets [b], [b + banks], .... *)
let fold_bank t ~banks b ~init ~f =
  assert (t.sets mod banks = 0 && b >= 0 && b < banks);
  fold_sets t ~first:b ~step:banks ~init ~f

let count t = t.resident

let count_bank t ~banks b =
  fold_bank t ~banks b ~init:0 ~f:(fun n ~line:_ _ -> n + 1)
