(* Timing wheel with an overflow heap; see the .mli for the design notes.

   Invariants:
   - [cur] is monotone; every event with time < [cur] has been popped.
   - A slot only ever holds events of a single absolute time: an entry for
     [T] is slot-resident iff it was pushed with [T - cur < horizon], and
     distinct times within [cur, cur + horizon) map to distinct slots.
   - A slot is fully drained (rd = wr, reset to 0) before the cursor moves
     past its time, so reuse for [T + horizon] never mixes batches.
   - All overflow entries for time [T] predate (in push order) every slot
     entry for [T], so popping overflow-first at [T] is global FIFO. *)

type 'a slot = {
  mutable arr : 'a array;
  mutable rd : int;  (* next index to pop. *)
  mutable wr : int;  (* next index to fill; empty iff rd = wr. *)
}

type 'a t = {
  dummy : 'a;
  horizon : int;  (* power of two. *)
  idx_mask : int;  (* horizon - 1. *)
  slots : 'a slot array;
  overflow : 'a Pqueue.t;
  mutable cur : int;  (* cursor: no pending event lives below it. *)
  mutable wheel_count : int;  (* events resident in slots. *)
  mutable size : int;  (* slots + overflow. *)
  mutable overflow_pushes : int;
}

let round_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(horizon = 512) ?(slot_capacity = 4) ~dummy () =
  let horizon = round_pow2 (max 2 horizon) in
  let slot_capacity = max 1 slot_capacity in
  {
    dummy;
    horizon;
    idx_mask = horizon - 1;
    slots =
      Array.init horizon (fun _ ->
          { arr = Array.make slot_capacity dummy; rd = 0; wr = 0 });
    overflow = Pqueue.create ~capacity:16 ();
    cur = 0;
    wheel_count = 0;
    size = 0;
    overflow_pushes = 0;
  }

let is_empty t = t.size = 0
let length t = t.size
let overflow_pushes t = t.overflow_pushes
let current_time t = t.cur

let grow_slot t s =
  let arr = Array.make (2 * Array.length s.arr) t.dummy in
  Array.blit s.arr 0 arr 0 s.wr;
  s.arr <- arr

let push t ~time value =
  if time < t.cur then
    invalid_arg
      (Printf.sprintf "Wheel.push: time %d precedes cursor %d" time t.cur);
  if time - t.cur < t.horizon then begin
    let s = t.slots.(time land t.idx_mask) in
    if s.wr = Array.length s.arr then grow_slot t s;
    s.arr.(s.wr) <- value;
    s.wr <- s.wr + 1;
    t.wheel_count <- t.wheel_count + 1
  end
  else begin
    Pqueue.push t.overflow ~time value;
    t.overflow_pushes <- t.overflow_pushes + 1
  end;
  t.size <- t.size + 1

(* Move [cur] to the next pending time.  Caller guarantees size > 0.
   Returns [true] when the event at [cur] must come from the overflow heap
   (which holds the older pushes for that cycle), [false] for the slot. *)
let rec advance t =
  if Pqueue.is_empty t.overflow then begin
    (* Slot-only: scan for the next non-empty slot, at most horizon away. *)
    if t.slots.(t.cur land t.idx_mask).wr = 0 then begin
      t.cur <- t.cur + 1;
      advance t
    end
    else false
  end
  else begin
    let ot = Pqueue.min_time t.overflow in
    if ot = t.cur then true
    else if t.wheel_count = 0 then begin
      (* Everything pending is far-future: jump straight to it. *)
      t.cur <- ot;
      true
    end
    else if t.slots.(t.cur land t.idx_mask).wr = 0 then begin
      t.cur <- t.cur + 1;
      advance t
    end
    else false
  end

let min_time t =
  if t.size = 0 then invalid_arg "Wheel.min_time: empty";
  ignore (advance t : bool);
  t.cur

let pop_min t =
  if t.size = 0 then invalid_arg "Wheel.pop_min: empty";
  t.size <- t.size - 1;
  if advance t then Pqueue.pop_min t.overflow
  else begin
    let s = t.slots.(t.cur land t.idx_mask) in
    let v = s.arr.(s.rd) in
    s.arr.(s.rd) <- t.dummy;
    s.rd <- s.rd + 1;
    if s.rd = s.wr then begin
      s.rd <- 0;
      s.wr <- 0
    end;
    t.wheel_count <- t.wheel_count - 1;
    v
  end

(* Non-destructive: [min_time]'s cursor advance would make pushes at times
   between the (unchanged) dispatch clock and the peeked minimum illegal —
   exactly what an event loop that peeks, declines to step, and then
   injects a present-time event (the model checker's stabilize/deliver
   cycle) needs to do.  [advance] only moves [cur], so restoring it
   re-permits those pushes; the skipped slots are empty either way.
   Returns [max_int] when empty, so the event loops' peek boxes nothing. *)
let next_time t =
  if t.size = 0 then max_int
  else begin
    let saved = t.cur in
    ignore (advance t : bool);
    let time = t.cur in
    t.cur <- saved;
    time
  end
