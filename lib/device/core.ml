module Engine = Spandex_sim.Engine
module Stats = Spandex_util.Stats

type ctx_state = Ready | Waiting | Finished

type context = {
  prog : Program.t;
  mutable pc : int;
  mutable state : ctx_state;
  (* Preallocated continuations (wired in [create]): issuing an op is the
     per-op hot path, so completion callbacks must not allocate a fresh
     closure each time.  [wake] reads [pc]/[state] at call time, so one
     closure per context is enough. *)
  mutable wake : unit -> unit;
  mutable wake_int : int -> unit;  (* [wake] discarding a loaded value. *)
  mutable check_k : int -> unit;
      (* logs the loaded value against the in-flight [Check] at
         [pc - 1], then wakes. *)
}

type t = {
  engine : Engine.t;
  port : Port.t;
  barriers : Barrier.t array;
  check_log : Check_log.t;
  core_id : int;
  clock : int;
  contexts : context array;
  stats : Stats.t;
  (* Interned per-op counters: issue runs once per simulated op. *)
  k_ops : Stats.key;
  k_loads : Stats.key;
  k_stores : Stats.key;
  k_rmws : Stats.key;
  k_acquires : Stats.key;
  k_releases : Stats.key;
  k_barriers : Stats.key;
  k_compute : Stats.key;
  mutable rr : int;
  mutable issue_armed : bool;
  mutable next_slot : int;
  mutable done_count : int;
  mutable issue_thunk : unit -> unit;  (* preallocated issue-slot event. *)
}

(* Index of the next ready context in round-robin order, or -1.  A
   top-level scan, so the per-op call builds neither an option nor a
   closure. *)
let rec scan_ready t n i =
  if i = n then -1
  else
    let idx = (t.rr + i) mod n in
    if t.contexts.(idx).state = Ready then idx else scan_ready t n (i + 1)

let next_ready t = scan_ready t (Array.length t.contexts) 0

let rec arm t =
  if not t.issue_armed then begin
    t.issue_armed <- true;
    let now = Engine.now t.engine in
    let time = if t.next_slot > now then t.next_slot else now in
    Engine.at t.engine ~time t.issue_thunk
  end

and issue t =
  let idx = next_ready t in
  if idx >= 0 then begin
    let ctx = t.contexts.(idx) in
    t.rr <- (idx + 1) mod Array.length t.contexts;
    t.next_slot <- Engine.now t.engine + t.clock;
    let p = ctx.prog and pc = ctx.pc in
    let c = p.Program.code.(pc) in
    ctx.pc <- pc + 1;
    Stats.bump t.stats t.k_ops;
    let wake = ctx.wake in
    ctx.state <- Waiting;
    (match Program.kind c with
    | Program.Load ->
      Stats.bump t.stats t.k_loads;
      t.port.Port.load p.Program.addrs.(Program.operand c) ~k:ctx.wake_int
    | Program.Check ->
      Stats.bump t.stats t.k_loads;
      t.port.Port.load p.Program.addrs.(Program.operand c) ~k:ctx.check_k
    | Program.Store ->
      Stats.bump t.stats t.k_stores;
      t.port.Port.store p.Program.addrs.(Program.operand c)
        ~value:p.Program.args.(pc) ~k:wake
    | Program.Rmw ->
      Stats.bump t.stats t.k_rmws;
      t.port.Port.rmw p.Program.addrs.(Program.operand c)
        p.Program.amos.(p.Program.args.(pc)) ~k:ctx.wake_int
    | Program.Acquire ->
      Stats.bump t.stats t.k_acquires;
      t.port.Port.acquire ~k:wake
    | Program.Acquire_region ->
      Stats.bump t.stats t.k_acquires;
      t.port.Port.acquire_region ~region:(Program.operand c) ~k:wake
    | Program.Release ->
      Stats.bump t.stats t.k_releases;
      t.port.Port.release ~k:wake
    | Program.Barrier ->
      Stats.bump t.stats t.k_barriers;
      let barrier = t.barriers.(Program.operand c) in
      t.port.Port.release ~k:(fun () ->
          Barrier.arrive barrier ~k:(fun () -> t.port.Port.acquire ~k:wake))
    | Program.Barrier_region ->
      Stats.bump t.stats t.k_barriers;
      let barrier = t.barriers.(Program.operand c) in
      let region = p.Program.args.(pc) in
      t.port.Port.release ~k:(fun () ->
          Barrier.arrive barrier ~k:(fun () ->
              t.port.Port.acquire_region ~region ~k:wake))
    | Program.Compute ->
      Stats.bump t.stats t.k_compute;
      Engine.schedule t.engine ~delay:(Program.operand c * t.clock) wake);
    (* Keep issuing while other contexts are ready. *)
    arm t
  end

let create engine ~port ~barriers ~check_log ~core_id ~clock ~programs =
  assert (clock >= 1);
  let contexts =
    Array.map
      (fun prog ->
        {
          prog;
          pc = 0;
          state = (if Program.length prog = 0 then Finished else Ready);
          wake = ignore;
          wake_int = ignore;
          check_k = ignore;
        })
      programs
  in
  let done_count =
    Array.fold_left
      (fun acc c -> if c.state = Finished then acc + 1 else acc)
      0 contexts
  in
  let stats = Stats.create () in
  let t =
    {
      engine;
      port;
      barriers;
      check_log;
      core_id;
      clock;
      contexts;
      stats;
      k_ops = Stats.key stats "ops";
      k_loads = Stats.key stats "loads";
      k_stores = Stats.key stats "stores";
      k_rmws = Stats.key stats "rmws";
      k_acquires = Stats.key stats "acquires";
      k_releases = Stats.key stats "releases";
      k_barriers = Stats.key stats "barriers";
      k_compute = Stats.key stats "compute";
      rr = 0;
      issue_armed = false;
      next_slot = 0;
      done_count;
      issue_thunk = ignore;
    }
  in
  Array.iter
    (fun ctx ->
      let wake () =
        if ctx.pc >= Program.length ctx.prog then begin
          ctx.state <- Finished;
          t.done_count <- t.done_count + 1
        end
        else ctx.state <- Ready;
        arm t
      in
      ctx.wake <- wake;
      ctx.wake_int <- (fun _v -> wake ());
      ctx.check_k <-
        (fun actual ->
          let p = ctx.prog and pc = ctx.pc - 1 in
          let c = p.Program.code.(pc) in
          assert (Program.kind c = Program.Check);
          let expected = p.Program.args.(pc) in
          Check_log.incr_checks t.check_log;
          if actual <> expected then
            Check_log.record t.check_log
              {
                Check_log.core = t.core_id;
                addr = p.Program.addrs.(Program.operand c);
                expected;
                actual;
                cycle = Engine.now t.engine;
              };
          wake ()))
    t.contexts;
  t.issue_thunk <-
    (fun () ->
      t.issue_armed <- false;
      issue t);
  t

(* Every unfinished context: a Waiting one names the op it issued, a
   Ready one the op it will issue next. *)
let start t =
  Engine.register_pending_source t.engine (fun () ->
      Array.to_list t.contexts
      |> List.mapi (fun i c ->
             let item verb pc =
               let op = Program.get c.prog pc in
               Some
                 {
                   Engine.pw_device = Printf.sprintf "core.%d" t.core_id;
                   pw_txn = -1;
                   pw_line =
                     (match op with
                     | Ops.Load a | Ops.Check (a, _) | Ops.Store (a, _)
                     | Ops.Rmw (a, _) ->
                       a.Spandex_proto.Addr.line
                     | _ -> -1);
                   pw_what =
                     Format.asprintf "ctx%d %s op %d: %a" i verb pc Ops.pp op;
                 }
             in
             match c.state with
             | Finished -> None
             | Ready -> item "ready at" c.pc
             | Waiting -> item "waiting on" (c.pc - 1))
      |> List.filter_map Fun.id);
  arm t

let finished t = t.done_count = Array.length t.contexts

let stats t = t.stats
let core_id t = t.core_id

module Fp = Spandex_util.Fingerprint

let fingerprint t fp =
  Fp.tag fp "core";
  Fp.int fp t.core_id;
  Fp.int fp t.rr;
  Fp.int fp t.done_count;
  Fp.bool fp t.issue_armed;
  Array.iter
    (fun c ->
      Fp.int fp c.pc;
      Fp.int fp
        (match c.state with Ready -> 0 | Waiting -> 1 | Finished -> 2))
    t.contexts
