module Ops = Spandex_device.Ops
module Program = Spandex_device.Program
module Addr = Spandex_proto.Addr
module Amo = Spandex_proto.Amo
module Params = Spandex_system.Params
module Workload = Spandex_system.Workload
module Fault = Spandex_net.Fault
module Retry = Spandex_util.Retry

type case = {
  case_name : string;
  case_descr : string;
  case_lines : int list;
  min_devices : int;
  programs : devices:int -> Ops.t array array * int array;
}

let a ~line ~word = Addr.make ~line ~word

(* Each case builds one program per device (role order) plus the barrier
   table.  All programs are data-race-free: conflicting accesses are
   separated by barriers, so the final values are schedule-independent and
   the embedded [Check] ops form a sound oracle under every
   interleaving. *)

let mp =
  {
    case_name = "mp";
    case_descr = "producer writes two lines; consumers check after barrier";
    case_lines = [ 0; 1 ];
    min_devices = 2;
    programs =
      (fun ~devices ->
        let d = a ~line:0 ~word:0 and f = a ~line:1 ~word:0 in
        let producer =
          [| Ops.Store (d, 42); Ops.Store (f, 7); Ops.Barrier 0 |]
        in
        let consumer = [| Ops.Barrier 0; Ops.Check (d, 42); Ops.Check (f, 7) |] in
        ( Array.init devices (fun i -> if i = 0 then producer else consumer),
          [| devices |] ));
  }

let ww =
  {
    case_name = "ww";
    case_descr = "two writers hit different words of one line, cross-check";
    case_lines = [ 0 ];
    min_devices = 2;
    programs =
      (fun ~devices ->
        let w0 = a ~line:0 ~word:0 and w1 = a ~line:0 ~word:1 in
        let p0 = [| Ops.Store (w0, 1); Ops.Barrier 0; Ops.Check (w1, 2) |] in
        let p1 = [| Ops.Store (w1, 2); Ops.Barrier 0; Ops.Check (w0, 1) |] in
        let px = [| Ops.Barrier 0; Ops.Check (w0, 1); Ops.Check (w1, 2) |] in
        ( Array.init devices (fun i ->
              if i = 0 then p0 else if i = 1 then p1 else px),
          [| devices |] ));
  }

let rmw =
  {
    case_name = "rmw";
    case_descr = "every device fetch-and-adds twice; sum checked after barrier";
    case_lines = [ 0 ];
    min_devices = 2;
    programs =
      (fun ~devices ->
        let c = a ~line:0 ~word:0 in
        let adds = [| Ops.Rmw (c, Amo.Add 1); Ops.Rmw (c, Amo.Add 1) |] in
        (* Backing memory initialises words to a nonzero hash sentinel, so
           the counter must be zeroed (and the zeroing ordered by a
           barrier) before any device adds to it. *)
        ( Array.init devices (fun i ->
              if i = 0 then
                Array.concat
                  [ [| Ops.Store (c, 0); Ops.Barrier 0 |]; adds;
                    [| Ops.Barrier 1; Ops.Check (c, 2 * devices) |] ]
              else
                Array.concat [ [| Ops.Barrier 0 |]; adds; [| Ops.Barrier 1 |] ]),
          [| devices; devices |] ));
  }

let own =
  {
    case_name = "own";
    case_descr = "ownership migrates 0 -> 1 -> 0 across two barrier phases";
    case_lines = [ 0 ];
    min_devices = 2;
    programs =
      (fun ~devices ->
        let x = a ~line:0 ~word:0 in
        let p0 =
          [| Ops.Store (x, 1); Ops.Barrier 0; Ops.Barrier 1; Ops.Check (x, 3) |]
        in
        let p1 =
          [| Ops.Barrier 0; Ops.Check (x, 1); Ops.Store (x, 3); Ops.Barrier 1 |]
        in
        let px = [| Ops.Barrier 0; Ops.Barrier 1; Ops.Check (x, 3) |] in
        ( Array.init devices (fun i ->
              if i = 0 then p0 else if i = 1 then p1 else px),
          [| devices; devices |] ));
  }

let shared =
  {
    case_name = "shared";
    case_descr = "one writer, all devices read-share two lines";
    case_lines = [ 0; 1 ];
    min_devices = 2;
    programs =
      (fun ~devices ->
        let x = a ~line:0 ~word:0 and y = a ~line:1 ~word:2 in
        let p0 =
          [| Ops.Store (x, 5); Ops.Store (y, 9); Ops.Barrier 0;
             Ops.Check (x, 5) |]
        in
        let px = [| Ops.Barrier 0; Ops.Check (x, 5); Ops.Check (y, 9) |] in
        ( Array.init devices (fun i -> if i = 0 then p0 else px),
          [| devices |] ));
  }

let all = [ mp; ww; rmw; own; shared ]

let by_name name =
  let lname = String.lowercase_ascii name in
  List.find (fun c -> c.case_name = lname) all

let workload case ~cpus ~gpus =
  let devices = cpus + gpus in
  if devices < case.min_devices then
    invalid_arg
      (Printf.sprintf "litmus case %s needs at least %d devices"
         case.case_name case.min_devices);
  let programs, barrier_parties = case.programs ~devices in
  {
    Workload.name = Printf.sprintf "litmus-%s" case.case_name;
    cpu_programs = Array.init cpus (fun i -> Program.of_ops programs.(i));
    gpu_programs =
      Array.init gpus (fun j -> [| Program.of_ops programs.(cpus + j) |]);
    barrier_parties;
    region_of = (fun _ -> 0);
  }

(* Retry timers fire at a fixed far-future offset with no jitter: during
   exploration the scheduler only steps across that gap once the delivery
   pool is empty, so retries model recovery from checker-injected drops
   without exploding the near-term interleaving space. *)
let checker_retry =
  { Retry.base_timeout = 50_000; backoff_factor = 2; max_timeout = 400_000;
    jitter = 0; max_attempts = 8 }

let params ~cpus ~gpus ~faults =
  let p = Params.small in
  {
    p with
    Params.cpu_cores = max cpus 1;
    gpu_cus = gpus;
    warps_per_cu = 1;
    llc_banks = 1;
    watchdog_cycles = 0;
    trace = None;
    fault =
      (if faults then
         (* Zero probabilities: the plan never fires on its own, but its
            presence arms the end-to-end retry timers and LLC replay
            caches that recovery from checker-chosen drops depends on. *)
         Some (Fault.uniform ~seed:1 ~retry:checker_retry ())
       else None);
  }
