module Mask = Spandex_util.Mask
module Addr = Spandex_proto.Addr

type entry = {
  mutable line : int;
  mutable mask : Mask.t;
  values : int array;
  mutable age : int;
}

(* Placeholder for vacated free-list slots; never read. *)
let dummy_entry = { line = -1; mask = Mask.empty; values = [||]; age = 0 }

(* FIFO order lives in a circular buffer of the (bounded) capacity instead
   of an append-to-tail list: push/take are O(1) with no list cells, and
   the store cycle is embedded in the entry rather than a side table. *)
type t = {
  capacity : int;
  table : (int, entry) Hashtbl.t;
  order : int array;  (** circular, [head .. head+len) are live lines. *)
  mutable head : int;
  mutable len : int;
  free : entry array;  (** recycled entry records ([release]). *)
  mutable free_n : int;
}

let create ~capacity =
  assert (capacity > 0);
  {
    capacity;
    table = Hashtbl.create capacity;
    order = Array.make capacity 0;
    head = 0;
    len = 0;
    free = Array.make capacity dummy_entry;
    free_n = 0;
  }

let slot t i = (t.head + i) mod t.capacity

let push t ~addr:{ Addr.line; word } ~value ~now =
  match Hashtbl.find t.table line with
  | e ->
    e.mask <- Mask.add e.mask word;
    e.values.(word) <- value;
    e.age <- now;
    `Coalesced
  | exception Not_found ->
    if t.len >= t.capacity then `Full
    else begin
      let e =
        if t.free_n > 0 then begin
          t.free_n <- t.free_n - 1;
          let e = t.free.(t.free_n) in
          t.free.(t.free_n) <- dummy_entry;
          (* Consumers must only read masked words, but zero the rest so a
             reused entry is indistinguishable from a fresh one. *)
          Array.fill e.values 0 (Array.length e.values) 0;
          e.line <- line;
          e.mask <- Mask.singleton word;
          e.age <- now;
          e
        end
        else
          {
            line;
            mask = Mask.singleton word;
            values = Array.make Addr.words_per_line 0;
            age = now;
          }
      in
      e.values.(word) <- value;
      Hashtbl.add t.table line e;
      t.order.(slot t t.len) <- line;
      t.len <- t.len + 1;
      `New
    end

let is_empty t = t.len = 0
let count t = t.len

let take_oldest_exn t =
  if t.len = 0 then raise Not_found
  else begin
    let line = t.order.(t.head) in
    let e = Hashtbl.find t.table line in
    Hashtbl.remove t.table line;
    t.head <- (t.head + 1) mod t.capacity;
    t.len <- t.len - 1;
    e
  end

let peek_oldest_exn t =
  if t.len = 0 then raise Not_found
  else Hashtbl.find t.table t.order.(t.head)

let release t e =
  if t.free_n < Array.length t.free
     && Array.length e.values = Addr.words_per_line
  then begin
    t.free.(t.free_n) <- e;
    t.free_n <- t.free_n + 1
  end

let find t ~line =
  match Hashtbl.find t.table line with
  | e -> Some e
  | exception Not_found -> None

let mem t ~line = Hashtbl.mem t.table line

let age t ~line =
  match Hashtbl.find t.table line with
  | e -> e.age
  | exception Not_found -> 0

let forward t ~addr:{ Addr.line; word } =
  match Hashtbl.find t.table line with
  | e when Mask.mem e.mask word -> Some e.values.(word)
  | _ | (exception Not_found) -> None

let iter t ~f =
  for i = 0 to t.len - 1 do
    f (Hashtbl.find t.table t.order.(slot t i))
  done
