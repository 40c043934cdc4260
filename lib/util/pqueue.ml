type 'a entry = { time : int; seq : int; value : 'a }

(* The heap array needs a fill element of type ['a entry], which cannot be
   conjured for a polymorphic ['a].  Instead of an [Obj.magic] dummy — a
   latent soundness hazard under flambda/OCaml 5 — the array stays empty
   until the first push, whose entry then doubles as the fill element
   ([filler]).  Freed slots are overwritten with [filler] so popped values
   become collectable; the single retained filler entry (and whatever its
   value captures) is the documented cost of the safe representation. *)
type 'a t = {
  mutable heap : 'a entry array;
  mutable filler : 'a entry option;  (** fill element once known. *)
  mutable capacity : int;  (** requested initial capacity. *)
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 16) () =
  { heap = [||]; filler = None; capacity = max 1 capacity; size = 0; next_seq = 0 }

let is_empty t = t.size = 0

let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t fill =
  let cap = max t.capacity (2 * Array.length t.heap) in
  let heap = Array.make cap fill in
  Array.blit t.heap 0 heap 0 t.size;
  t.heap <- heap

let push t ~time value =
  let entry = { time; seq = t.next_seq; value } in
  (match t.filler with None -> t.filler <- Some entry | Some _ -> ());
  if t.size = Array.length t.heap then grow t entry;
  t.next_seq <- t.next_seq + 1;
  (* Sift up. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  t.heap.(!i) <- entry;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if less entry t.heap.(parent) then begin
      t.heap.(!i) <- t.heap.(parent);
      t.heap.(parent) <- entry;
      i := parent
    end
    else continue := false
  done

let filler_exn t =
  match t.filler with Some f -> f | None -> assert false

(* Shared removal of the root; the caller has already read it. *)
let remove_min t =
  t.size <- t.size - 1;
  let last = t.heap.(t.size) in
  t.heap.(t.size) <- filler_exn t;
  if t.size > 0 then begin
    t.heap.(0) <- last;
    (* Sift down. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.size && less t.heap.(l) t.heap.(!smallest) then smallest := l;
      if r < t.size && less t.heap.(r) t.heap.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = t.heap.(!i) in
        t.heap.(!i) <- t.heap.(!smallest);
        t.heap.(!smallest) <- tmp;
        i := !smallest
      end
      else continue := false
    done
  end

let min_time t =
  if t.size = 0 then invalid_arg "Pqueue.min_time: empty";
  t.heap.(0).time

let pop_min t =
  if t.size = 0 then invalid_arg "Pqueue.pop_min: empty";
  let min = t.heap.(0) in
  remove_min t;
  min.value
