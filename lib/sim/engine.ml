module Wheel = Spandex_util.Wheel
module Msg = Spandex_proto.Msg

type endpoint = {
  mutable handler : Msg.t -> unit;
  mutable ingress_free : int;  (** next cycle the ingress port is free. *)
  in_flight : int ref;  (** owning network's in-flight counter. *)
}

(* The dominant event kinds are represented as data instead of nested
   closures: [Handle] (tag 2) models the ingress granting a delivered
   message (one per cycle) and invoking the handler, [Egress] (tag 3) a
   component handing a message to the network after its internal access
   latency (dispatched through the callback {!set_egress} installs), and
   [Apply] (tag 4) a completion continuation fired with its result value
   (load/RMW hits).  [Thunk] (tag 0) is the fallback for every other
   component callback.  Network deliveries do not live in this queue at
   all — see [Netq] below.

   Events are mutable records drawn from a per-engine free-list instead of
   variant cells: dispatch copies the payload fields into locals, returns
   the record to the free-list, then acts, so a steady-state simulation
   allocates no event cells at all.  The tag encoding replaces the
   constructor word; unused fields hold settled dummies so a parked record
   pins no component state. *)
type ev = {
  mutable tag : int;
  mutable fn : unit -> unit;  (* Thunk *)
  mutable af : int -> unit;  (* Apply continuation *)
  mutable iarg : int;  (* Apply value *)
  mutable msg : Msg.t;  (* Handle / Egress *)
  mutable ep : endpoint;  (* Handle *)
}

let nop () = ()
let nop1 (_ : int) = ()

(* Settled fillers for unused event fields.  [dummy_ep] is shared across
   engines (and domains) but never written through. *)
let dummy_ep = { handler = (fun _ -> ()); ingress_free = 0; in_flight = ref 0 }

let fresh_ev () =
  { tag = 0; fn = nop; af = nop1; iarg = 0; msg = Msg.dummy; ep = dummy_ep }

(* Network deliveries are ordered by a key that no scheduler implementation
   detail can perturb: (arrival time, send time, src << 40 | per-src seq).
   The engine drains same-cycle component events before granting the
   cycle's deliveries, so the interleave of deliveries with component work
   is canonical — a function of the simulated machine, not of the order
   the queue happened to be pushed.

   Represented as a binary min-heap over parallel int arrays (no per-entry
   boxing; [msgs]/[eps] carry the payload).  Keys are unique — [tie]
   embeds a per-source sequence number — so ordering is total. *)
module Netq = struct
  type t = {
    mutable times : int array;
    mutable t0s : int array;
    mutable ties : int array;
    mutable msgs : Msg.t array;
    mutable eps : endpoint array;
    mutable len : int;
  }

  let create () =
    {
      times = Array.make 64 0;
      t0s = Array.make 64 0;
      ties = Array.make 64 0;
      msgs = Array.make 64 Msg.dummy;
      eps = Array.make 64 dummy_ep;
      len = 0;
    }

  let is_empty q = q.len = 0
  let min_time q = q.times.(0)

  let less q i j =
    let ti = q.times.(i) and tj = q.times.(j) in
    ti < tj
    || ti = tj
       &&
       let ai = q.t0s.(i) and aj = q.t0s.(j) in
       ai < aj || (ai = aj && q.ties.(i) < q.ties.(j))

  let swap q i j =
    let t = q.times.(i) in
    q.times.(i) <- q.times.(j);
    q.times.(j) <- t;
    let t = q.t0s.(i) in
    q.t0s.(i) <- q.t0s.(j);
    q.t0s.(j) <- t;
    let t = q.ties.(i) in
    q.ties.(i) <- q.ties.(j);
    q.ties.(j) <- t;
    let m = q.msgs.(i) in
    q.msgs.(i) <- q.msgs.(j);
    q.msgs.(j) <- m;
    let e = q.eps.(i) in
    q.eps.(i) <- q.eps.(j);
    q.eps.(j) <- e

  let grow q =
    let cap = 2 * Array.length q.times in
    let times = Array.make cap 0
    and t0s = Array.make cap 0
    and ties = Array.make cap 0
    and msgs = Array.make cap Msg.dummy
    and eps = Array.make cap dummy_ep in
    Array.blit q.times 0 times 0 q.len;
    Array.blit q.t0s 0 t0s 0 q.len;
    Array.blit q.ties 0 ties 0 q.len;
    Array.blit q.msgs 0 msgs 0 q.len;
    Array.blit q.eps 0 eps 0 q.len;
    q.times <- times;
    q.t0s <- t0s;
    q.ties <- ties;
    q.msgs <- msgs;
    q.eps <- eps

  let push q ~time ~t0 ~tie msg ep =
    if q.len = Array.length q.times then grow q;
    let i = ref q.len in
    q.times.(!i) <- time;
    q.t0s.(!i) <- t0;
    q.ties.(!i) <- tie;
    q.msgs.(!i) <- msg;
    q.eps.(!i) <- ep;
    q.len <- q.len + 1;
    while !i > 0 && less q !i ((!i - 1) / 2) do
      swap q !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  (* Remove the root; callers read [msgs.(0)]/[eps.(0)] first. *)
  let drop_min q =
    q.len <- q.len - 1;
    let n = q.len in
    if n > 0 then swap q 0 n;
    (* Clear the vacated slot so it pins neither message nor endpoint. *)
    q.msgs.(n) <- Msg.dummy;
    q.eps.(n) <- dummy_ep;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let s = ref !i in
      if l < n && less q l !s then s := l;
      if r < n && less q r !s then s := r;
      if !s <> !i then begin
        swap q !i !s;
        i := !s
      end
      else continue := false
    done
end

type t = {
  wheel : ev Wheel.t;
  netq : Netq.t;
  (* Per-source delivery sequence numbers (index = src device id): the
     low half of the canonical delivery tiebreak. *)
  mutable dseq : int array;
  mutable lookahead : int;
      (* the until_done / watchdog check grid; [Run] sets it to the
         topology's min latency. *)
  mutable time : int;
  mutable steps : int;
  mutable step_limit : int;
  mutable egress : Msg.t -> unit;  (** installed once by [Network.create]. *)
  trace : Trace.t;
  (* Occupancy sampler: fired inline by the dispatch loops whenever time
     reaches [next_sample], so sampling never enqueues events and the
     [steps]/event counts are identical with tracing on or off.
     [next_sample] stays [max_int] when no sampler is installed, making
     the disabled cost a single compare per event. *)
  mutable sampler : int -> unit;
  mutable next_sample : int;
  mutable sample_every : int;
  (* Registered by components at build time; each closure reports the
     component's still-live work (MSHR entries, store-buffer stores,
     parked ops) so a drained queue can be diagnosed as [Stuck] instead
     of silently returning as complete. *)
  mutable pending_sources : (unit -> pending_work list) list;
  (* Watchdog state, polled at lookahead-grid boundaries by [run] — never
     via heartbeat events, which would perturb event counts. *)
  mutable wd_interval : int;  (* 0 = no watchdog *)
  mutable wd_beat : int;
  mutable wd_next : int;
  mutable wd_last : int;
  mutable wd_last_change : int;
  mutable wd_progress : unit -> int;
  (* Event free-list: records recycled at dispatch, popped by the push
     helpers.  Engine-local, so no synchronization. *)
  mutable free_evs : ev array;
  mutable free_len : int;
}

and pending_work = {
  pw_device : string;  (** component name, e.g. ["denovo_l1.2"]. *)
  pw_txn : int;  (** transaction id, or [-1] when not transaction-bound. *)
  pw_line : int;  (** line address, or [-1] when unknown. *)
  pw_what : string;  (** short description of the stuck work. *)
}

exception Deadlock of string

type stuck = {
  stuck_cycle : int;  (** cycle at which the queue drained. *)
  stuck_work : pending_work list;  (** live work left behind. *)
}

exception Stuck of stuck

let pp_pending_work fmt p =
  Format.fprintf fmt "%s: %s (txn %d, line %d)" p.pw_device p.pw_what p.pw_txn
    p.pw_line

let pp_work fmt work =
  Format.fprintf fmt "%d live work item(s):" (List.length work);
  List.iter (fun p -> Format.fprintf fmt "@\n  %a" pp_pending_work p) work

let pp_stuck fmt s =
  Format.fprintf fmt "event queue drained at cycle %d with %a" s.stuck_cycle
    pp_work s.stuck_work

type livelock = {
  cycle : int;  (** cycle at which the watchdog gave up. *)
  stalled_for : int;  (** cycles since the last observed progress. *)
  work : pending_work list;  (** live work at the trip. *)
}

exception Livelock of livelock

let pp_livelock fmt l =
  Format.fprintf fmt "livelock at cycle %d (no progress for %d cycles): %a"
    l.cycle l.stalled_for pp_work l.work

let () =
  Printexc.register_printer (function
    | Deadlock m -> Some ("deadlock: " ^ m)
    | Stuck s -> Some (Format.asprintf "stuck: %a" pp_stuck s)
    | Livelock l -> Some (Format.asprintf "%a" pp_livelock l)
    | _ -> None)

let create ?(trace = Trace.disabled) () =
  {
    wheel = Wheel.create ~horizon:512 ~dummy:(fresh_ev ()) ();
    netq = Netq.create ();
    dseq = Array.make 64 0;
    lookahead = 1;
    time = 0;
    steps = 0;
    step_limit = 500_000_000;
    egress = (fun _ -> failwith "Engine: no egress callback installed");
    trace;
    sampler = (fun _ -> ());
    next_sample = max_int;
    sample_every = 0;
    pending_sources = [];
    wd_interval = 0;
    wd_beat = 0;
    wd_next = 0;
    wd_last = 0;
    wd_last_change = 0;
    wd_progress = (fun () -> 0);
    free_evs = Array.init 64 (fun _ -> fresh_ev ());
    free_len = 64;
  }

let register_pending_source t f = t.pending_sources <- f :: t.pending_sources

let live_work t =
  (* Sources are prepended at registration; reverse so reports follow
     build order. *)
  List.concat_map (fun f -> f ()) (List.rev t.pending_sources)

let now t = t.time
let set_egress t f = t.egress <- f
let trace t = t.trace

let set_lookahead t l =
  if l <= 0 then invalid_arg "Engine.set_lookahead";
  t.lookahead <- l

let set_sampler t ~every f =
  if every <= 0 then invalid_arg "Engine.set_sampler: every";
  t.sampler <- f;
  t.sample_every <- every;
  t.next_sample <- t.time

let sample_now t =
  t.next_sample <- t.time + t.sample_every;
  t.sampler t.time

let ev_alloc t =
  if t.free_len > 0 then begin
    t.free_len <- t.free_len - 1;
    t.free_evs.(t.free_len)
  end
  else fresh_ev ()

(* Clear the payload fields before parking so a free record pins neither a
   closure environment nor a message. *)
let ev_recycle t e =
  e.fn <- nop;
  e.af <- nop1;
  e.msg <- Msg.dummy;
  e.ep <- dummy_ep;
  if t.free_len = Array.length t.free_evs then begin
    let cap = 2 * t.free_len in
    let free = Array.make cap e in
    Array.blit t.free_evs 0 free 0 t.free_len;
    t.free_evs <- free
  end;
  t.free_evs.(t.free_len) <- e;
  t.free_len <- t.free_len + 1

let at t ~time f =
  if time < t.time then
    invalid_arg
      (Printf.sprintf "Engine.at: time %d is in the past (now %d)" time t.time);
  let e = ev_alloc t in
  e.tag <- 0;
  e.fn <- f;
  Wheel.push t.wheel ~time e

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  let e = ev_alloc t in
  e.tag <- 0;
  e.fn <- f;
  Wheel.push t.wheel ~time:(t.time + delay) e

(* Delivery ties pack (src, per-src seq) into one int: src in the high
   bits, sequence below.  Device ids are small dense ints (< 2^22 with
   room to spare); sequences fit 40 bits for any plausible run. *)
let draw_tie t src =
  if src < 0 || src >= 1 lsl 22 then
    invalid_arg "Engine: src device id out of range";
  if src >= Array.length t.dseq then begin
    let grown = Array.make (max (src + 1) (2 * Array.length t.dseq)) 0 in
    Array.blit t.dseq 0 grown 0 (Array.length t.dseq);
    t.dseq <- grown
  end;
  let s = t.dseq.(src) in
  t.dseq.(src) <- s + 1;
  (src lsl 40) lor s

let deliver t ~delay (msg : Msg.t) ep =
  if delay < 0 then invalid_arg "Engine.deliver: negative delay";
  Netq.push t.netq ~time:(t.time + delay) ~t0:t.time
    ~tie:(draw_tie t msg.Msg.src) msg ep

let send_later t ~delay msg =
  if delay < 0 then invalid_arg "Engine.send_later: negative delay";
  let e = ev_alloc t in
  e.tag <- 3;
  e.msg <- msg;
  Wheel.push t.wheel ~time:(t.time + delay) e

let apply_later t ~delay f v =
  if delay < 0 then invalid_arg "Engine.apply_later: negative delay";
  let e = ev_alloc t in
  e.tag <- 4;
  e.af <- f;
  e.iarg <- v;
  Wheel.push t.wheel ~time:(t.time + delay) e

let step_limit_hit t =
  raise
    (Deadlock
       (Format.asprintf "step limit %d exceeded at cycle %d with %a"
          t.step_limit t.time pp_work (live_work t)))

(* Dispatch copies an event's fields into locals and recycles the record
   *before* acting, so the action's own pushes can reuse it immediately.
   After a [Handle]'s component handler returns, the message itself goes
   back to its pool unless the handler kept it (see {!Msg.recycle}). *)

let dispatch t (e : ev) =
  if t.time >= t.next_sample then sample_now t;
  match e.tag with
  | 0 ->
    let f = e.fn in
    ev_recycle t e;
    f ()
  | 2 ->
    let ep = e.ep in
    let msg = e.msg in
    ev_recycle t e;
    decr ep.in_flight;
    ep.handler msg;
    Msg.recycle msg
  | 3 ->
    let msg = e.msg in
    ev_recycle t e;
    t.egress msg
  | _ ->
    let f = e.af in
    let v = e.iarg in
    ev_recycle t e;
    f v

(* Grant the best pending delivery: the one-message-per-cycle ingress
   drain assigns the port slot, and the handler invocation is scheduled as
   a [Handle] component event — which the run loops drain before granting
   the next delivery, so a burst of same-cycle arrivals at one endpoint
   is granted in key order with the port back-pressure applied exactly as
   the sequential engine always has. *)
let netq_dispatch t =
  if t.time >= t.next_sample then sample_now t;
  let q = t.netq in
  let msg = q.Netq.msgs.(0) and ep = q.Netq.eps.(0) in
  Netq.drop_min q;
  let deliver_at =
    if ep.ingress_free > t.time then ep.ingress_free else t.time
  in
  ep.ingress_free <- deliver_at + 1;
  let e = ev_alloc t in
  e.tag <- 2;
  e.msg <- msg;
  e.ep <- ep;
  Wheel.push t.wheel ~time:deliver_at e

let stuck t work = raise (Stuck { stuck_cycle = t.time; stuck_work = work })

(* A drained queue is only "done" if no component still holds live work:
   an L1 waiting on a reply that will never arrive would otherwise look
   like a completed simulation. *)
let drained ~strict t =
  if not strict then t.time
  else match live_work t with [] -> t.time | work -> stuck t work

(* The option-free peek every loop shares: the earliest queued event time,
   or [max_int] when both queues are empty.  Does not advance time. *)
let next_time t =
  let tq = Wheel.next_time t.wheel in
  if Netq.is_empty t.netq then tq
  else
    let tn = Netq.min_time t.netq in
    if tn < tq then tn else tq

(* Dispatch the single next event under the canonical pop rule: component
   events first at equal times ([tq <= tn]), deliveries only when strictly
   earliest or the component queue is idle at that cycle.  Combined with
   [Handle] being a component event, this makes the merged order a pure
   function of the simulated machine. *)
let dispatch_one t =
  let nq = t.netq and w = t.wheel in
  let from_net =
    (not (Netq.is_empty nq)) && Wheel.next_time w > Netq.min_time nq
  in
  t.steps <- t.steps + 1;
  if t.steps > t.step_limit then step_limit_hit t;
  if from_net then begin
    t.time <- Netq.min_time nq;
    netq_dispatch t
  end
  else begin
    let ev = Wheel.pop_min w in
    t.time <- Wheel.current_time w;
    dispatch t ev
  end

let has_events t = next_time t <> max_int

let run_all ?(strict = true) t =
  while has_events t do
    dispatch_one t
  done;
  drained ~strict t

let step t =
  if has_events t then begin
    dispatch_one t;
    true
  end
  else false

let set_step_limit t n = t.step_limit <- n
let events_processed t = t.steps

(* Watchdog: polled at lookahead-grid boundaries instead of via heartbeat
   events.  [boundary] values form a deterministic sequence (derived from
   event times), so stall decisions are reproducible; the beat throttle
   keeps the progress census off the per-window path. *)
let set_watchdog t ~interval ~progress =
  if interval <= 0 then invalid_arg "Engine.set_watchdog: interval";
  t.wd_interval <- interval;
  t.wd_beat <- max 1 (interval / 4);
  t.wd_next <- 0;
  t.wd_progress <- progress;
  t.wd_last <- progress ();
  t.wd_last_change <- t.time

let watchdog_check t ~boundary =
  if t.wd_interval > 0 && boundary >= t.wd_next then begin
    t.wd_next <- boundary + t.wd_beat;
    let cur = t.wd_progress () in
    if cur <> t.wd_last then begin
      t.wd_last <- cur;
      t.wd_last_change <- boundary
    end
    else if boundary - t.wd_last_change >= t.wd_interval then
      raise
        (Livelock
           {
             cycle = boundary;
             stalled_for = boundary - t.wd_last_change;
             work = live_work t;
           })
  end

(* [run] checks [until_done] at lookahead-grid boundaries, not per event:
   when the next event's window [b, b + L) differs from the last checked
   one, completion (and the watchdog) are evaluated on the settled state
   of everything before [b].  The finish cycle and event count of every
   run depend on this grid. *)
let run t ~until_done =
  let l = t.lookahead in
  let rec loop check_at =
    let te = next_time t in
    if te = max_int then
      if until_done () then t.time else stuck t (live_work t)
    else if te >= check_at then
      if until_done () then t.time
      else begin
        let b = l * (te / l) in
        watchdog_check t ~boundary:b;
        dispatch_one t;
        loop (b + l)
      end
    else begin
      dispatch_one t;
      loop check_at
    end
  in
  loop min_int
