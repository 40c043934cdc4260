(* Flat slot arrays instead of a Hashtbl: MSHRs are small (tens of
   entries), so linear scans beat hashing, and alloc/free touch no heap —
   no bucket cells, no resize.  [txns.(i) = -1] marks a free slot; [vals]
   is created lazily on the first alloc because ['a] has no default. *)
type 'a t = {
  capacity : int;
  txns : int array;
  mutable vals : 'a array;
  mutable len : int;
  mutable hi : int;  (* scan bound: every slot at index >= hi is free *)
  fresh : unit -> int;  (* txn-id source; per-device in every L1 *)
}

let create ?(fresh_txn = Spandex_proto.Txn.fresh) ~capacity () =
  assert (capacity > 0);
  {
    capacity;
    txns = Array.make capacity (-1);
    vals = [||];
    len = 0;
    hi = 0;
    fresh = fresh_txn;
  }

let is_full t = t.len >= t.capacity
let count t = t.len

let alloc t v =
  if is_full t then None
  else begin
    if Array.length t.vals = 0 then t.vals <- Array.make t.capacity v;
    let i = ref 0 in
    while t.txns.(!i) >= 0 do
      incr i
    done;
    let txn = t.fresh () in
    t.txns.(!i) <- txn;
    t.vals.(!i) <- v;
    if !i >= t.hi then t.hi <- !i + 1;
    t.len <- t.len + 1;
    Some txn
  end

(* Scans are [while] loops: a local recursive [go] would capture its free
   variables in a closure allocated on every call. *)
let find_exn t ~txn =
  let i = ref 0 in
  while !i < t.hi && t.txns.(!i) <> txn do
    incr i
  done;
  if !i < t.hi then t.vals.(!i) else raise Not_found

let find t ~txn =
  match find_exn t ~txn with v -> Some v | exception Not_found -> None

let free t ~txn =
  for i = 0 to t.hi - 1 do
    if t.txns.(i) = txn then begin
      t.txns.(i) <- -1;
      (* [vals.(i)] keeps its last record alive until the slot is reused;
         the table is bounded so this pins at most [capacity] records. *)
      t.len <- t.len - 1
    end
  done;
  while t.hi > 0 && t.txns.(t.hi - 1) < 0 do
    t.hi <- t.hi - 1
  done

let find_first_exn t a b ~f =
  let besti = ref (-1) in
  for i = 0 to t.hi - 1 do
    let txn = t.txns.(i) in
    if txn >= 0 && (!besti < 0 || txn < t.txns.(!besti)) && f a b t.vals.(i)
    then besti := i
  done;
  if !besti < 0 then raise Not_found else t.vals.(!besti)

let exists t a b ~f =
  let i = ref 0 in
  while !i < t.hi && not (t.txns.(!i) >= 0 && f a b t.vals.(!i)) do
    incr i
  done;
  !i < t.hi

let iter t ~f =
  for i = 0 to t.hi - 1 do
    if t.txns.(i) >= 0 then f ~txn:t.txns.(i) t.vals.(i)
  done
