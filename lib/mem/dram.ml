module Engine = Spandex_sim.Engine
module Linedata = Spandex_proto.Linedata

(* One independent DRAM channel: its own service queue, timing state and
   line store.  A channel belongs to exactly one LLC/directory bank (lines
   ≡ bank (mod banks) route here), so one bank's misses never queue behind
   another bank's. *)
module Channel = struct
  type t = {
    engine : Engine.t;
    latency : int;
    service_interval : int;
    lines : (int, int array) Hashtbl.t;
    mutable next_free : int;
    mutable reads : int;
    mutable writes : int;
    mutable peak_queue : int;
  }

  let create engine ~latency ~service_interval =
    {
      engine;
      latency;
      service_interval;
      lines = Hashtbl.create 4096;
      next_free = 0;
      reads = 0;
      writes = 0;
      peak_queue = 0;
    }

  let backing t line =
    match Hashtbl.find_opt t.lines line with
    | Some a -> a
    | None ->
      let a = Linedata.fresh_line ~line in
      Hashtbl.add t.lines line a;
      a

  (* Accesses queued behind the service-rate limiter right now: how far
     [next_free] runs ahead of the clock, in service slots. *)
  let queue_depth t =
    if t.service_interval <= 0 then 0
    else begin
      let now = Engine.now t.engine in
      if t.next_free > now then
        (t.next_free - now + t.service_interval - 1) / t.service_interval
      else 0
    end

  let read_line t ~line ~k =
    t.reads <- t.reads + 1;
    let now = Engine.now t.engine in
    let start = if t.next_free > now then t.next_free else now in
    t.next_free <- start + t.service_interval;
    (* The queue is deepest right after an enqueue, so sampling here
       captures the true peak (a deterministic, simulated quantity). *)
    let depth = queue_depth t in
    if depth > t.peak_queue then t.peak_queue <- depth;
    Engine.at t.engine ~time:(start + t.latency) (fun () ->
        k (Array.copy (backing t line)))

  let write_words t ~line ~mask ~values =
    t.writes <- t.writes + 1;
    Linedata.unpack_into ~mask ~values ~full:(backing t line)

  let peek_word t { Spandex_proto.Addr.line; word } = (backing t line).(word)
  let reads t = t.reads
  let writes t = t.writes
  let peak_queue_depth t = t.peak_queue

  let register_metrics t ?(labels = []) reg =
    let module Metrics = Spandex_obs.Metrics in
    Metrics.gauge reg ~name:"spandex_dram_queue_depth" ~labels
      ~help:"DRAM accesses waiting behind the service-rate limiter"
      (fun () -> queue_depth t);
    Metrics.counter reg ~name:"spandex_dram_reads_total" ~labels
      ~help:"line reads issued to backing memory" (fun () -> t.reads);
    Metrics.counter reg ~name:"spandex_dram_writes_total" ~labels
      ~help:"masked line writes committed to backing memory" (fun () ->
        t.writes)
end

(* The memory system: one channel per LLC bank (banked), or a single
   channel (the classic shared-queue model).  Lines interleave across
   channels exactly as they interleave across LLC banks ([line mod
   channels]), so each bank's traffic lands on its own channel. *)
type t = { channels : Channel.t array }

let create ?(channels = 1) engine ~latency ~service_interval =
  if channels < 1 then invalid_arg "Dram.create: channels must be >= 1";
  {
    channels =
      Array.init channels (fun _ ->
          Channel.create engine ~latency ~service_interval);
  }

let channels t = t.channels
let channel_of_line t ~line =
  t.channels.(Spandex_proto.Addr.bank_of ~banks:(Array.length t.channels) line)

let read_line t ~line ~k = Channel.read_line (channel_of_line t ~line) ~line ~k

let write_words t ~line ~mask ~values =
  Channel.write_words (channel_of_line t ~line) ~line ~mask ~values

let peek_word t ({ Spandex_proto.Addr.line; _ } as a) =
  Channel.peek_word (channel_of_line t ~line) a

let sum f t = Array.fold_left (fun acc c -> acc + f c) 0 t.channels
let reads t = sum Channel.reads t
let writes t = sum Channel.writes t

let register_metrics t reg =
  Array.iteri
    (fun b c ->
      Channel.register_metrics c ~labels:[ ("bank", string_of_int b) ] reg)
    t.channels
