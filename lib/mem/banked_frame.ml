(* Address-interleaved banked tag array: bank [b] holds the lines ≡ b
   (mod banks), keyed inside the bank by [line / banks].  Because [banks]
   divides [sets], global set [s] corresponds exactly to (bank [s mod
   banks], bank-local set [s / banks]) — the conflict sets and per-set LRU
   order are unchanged, so banking is behaviour-neutral.  What it buys is
   structural: each bank owns a disjoint slice of the tag/state arrays, so
   per-bank folds touch only that bank's lines.  Shared by the Spandex LLC
   and the MESI directory. *)

type 'a t = { frames : 'a Cache_frame.t array; banks : int }

let create ~banks ~sets ~ways =
  if banks < 1 then invalid_arg "Banked_frame: banks must be positive";
  if sets mod banks <> 0 then
    invalid_arg "Banked_frame: sets must be divisible by banks";
  {
    frames =
      Array.init banks (fun _ -> Cache_frame.create ~sets:(sets / banks) ~ways);
    banks;
  }

let banks t = t.banks
let bank t line = t.frames.(line mod t.banks)
let local t line = line / t.banks
let global t b local = (local * t.banks) + b
let find t ~line = Cache_frame.find (bank t line) ~line:(local t line)
let find_exn t ~line = Cache_frame.find_exn (bank t line) ~line:(local t line)
let touch t ~line = Cache_frame.touch (bank t line) ~line:(local t line)
let remove t ~line = Cache_frame.remove (bank t line) ~line:(local t line)

let insert t ~line m ~can_evict =
  let b = line mod t.banks in
  match
    Cache_frame.insert t.frames.(b) ~line:(local t line) m
      ~can_evict:(fun ~line m -> can_evict ~line:(global t b line) m)
  with
  | Cache_frame.Evicted (vline, vm) -> Cache_frame.Evicted (global t b vline, vm)
  | (Cache_frame.Inserted | Cache_frame.No_room) as r -> r

let lru_matching t ~set_line ~f =
  let b = set_line mod t.banks in
  Cache_frame.lru_matching t.frames.(b) ~set_line:(local t set_line)
    ~f:(fun ~line m -> f ~line:(global t b line) m)
  |> Option.map (fun (vline, vm) -> (global t b vline, vm))

let fold_bank t b ~init ~f =
  Cache_frame.fold t.frames.(b) ~init ~f:(fun acc ~line m ->
      f acc ~line:(global t b line) m)

let fold t ~init ~f =
  let acc = ref init in
  for b = 0 to t.banks - 1 do
    acc := fold_bank t b ~init:!acc ~f
  done;
  !acc

let count_bank t b = Cache_frame.count t.frames.(b)
let count t = Array.fold_left (fun a fr -> a + Cache_frame.count fr) 0 t.frames
