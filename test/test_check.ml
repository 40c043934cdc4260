(* Model checker: exhaustive interleaving exploration, invariant oracle,
   seeded-bug detection, counterexample minimization and replay, and the
   Engine.Stuck silent-deadlock audit. *)

module Engine = Spandex_sim.Engine
module Network = Spandex_net.Network
module Msg = Spandex_proto.Msg
module Config = Spandex_system.Config
module Params = Spandex_system.Params
module Run = Spandex_system.Run
module Litmus = Spandex_check.Litmus
module Checker = Spandex_check.Checker
module Schedule = Spandex_check.Schedule

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ----- Engine.Stuck: silent deadlock fails loudly -------------------------------- *)

(* A mesi L1 sends its first request into a black hole (no LLC endpoint
   handler does anything).  The queue drains with the MSHR still holding
   the miss: run_all must raise Stuck naming the device and line rather
   than returning as if complete. *)
let stuck_on_swallowed_reply () =
  let engine = Engine.create () in
  let net = Network.create engine (Spandex_net.Network.flat_topology ~latency:3) in
  Network.register net ~id:10 (fun _msg -> () (* black-hole LLC *));
  let l1 =
    Spandex_mesi.Mesi_l1.create engine net
      {
        Spandex_mesi.Mesi_l1.id = 0;
        llc_id = 10;
        llc_banks = 1;
        sets = 4;
        ways = 2;
        mshrs = 4;
        sb_capacity = 4;
        hit_latency = 1;
        coalesce_window = 0;
        notify_home_on_fwd_getm = false;
      }
  in
  let port = Spandex_mesi.Mesi_l1.port l1 in
  port.Spandex_device.Port.load
    (Spandex_proto.Addr.make ~line:3 ~word:0)
    ~k:(fun _ -> ());
  match Engine.run_all engine with
  | _ -> Alcotest.fail "run_all returned despite a live MSHR entry"
  | exception Engine.Stuck s ->
    check_bool "names the device" true
      (List.exists
         (fun w -> w.Engine.pw_device = "mesi_l1.0" && w.Engine.pw_line = 3)
         s.Engine.stuck_work);
    (* Permissive mode must still drain quietly. *)
    ignore (Engine.run_all ~strict:false engine)

(* ----- live work agrees with the finished predicate ------------------------------ *)

(* The engine's pending sources are the only report of stuck work, so they
   must be empty exactly when the system is finished — before the first
   event and after every one — and name every device as [Run] does.
   Soak's tiny cell on every configuration, plus one fault-armed cell. *)
let tiny_params =
  {
    Params.small with
    Params.cpu_cores = 2;
    gpu_cus = 2;
    warps_per_cu = 2;
    mem_latency = 15;
  }

let live_work_agrees params config =
  let wl =
    Spandex_workloads.Stress.generate
      {
        Spandex_workloads.Stress.default_spec with
        Spandex_workloads.Stress.seed = 1;
        phases = 4;
        words = 1536;
      }
      { Spandex_workloads.Microbench.cpus = 2; cus = 2; warps = 2 }
  in
  let sys = Run.build ~params ~config wl in
  let engine = sys.Run.sys_engine in
  let named w =
    let d = w.Engine.pw_device in
    d = "net"
    || String.starts_with ~prefix:"core." d
    || Array.mem d sys.Run.sys_device_names
  in
  let check step =
    let work = Engine.live_work engine in
    let finished = sys.Run.sys_finished () in
    if finished <> (work = []) then
      Alcotest.failf "%s step %d: finished=%b with %a" config.Config.name step
        finished Engine.pp_work work;
    List.iter
      (fun w ->
        if not (named w) then
          Alcotest.failf "%s step %d: unknown device in %a" config.Config.name
            step Engine.pp_pending_work w)
      work
  in
  check 0;
  let steps = ref 0 in
  while Engine.step engine do
    incr steps;
    check !steps
  done;
  check_bool "finished after draining" true (sys.Run.sys_finished ())

let live_work_agrees_all_configs () =
  List.iter (live_work_agrees tiny_params) Config.extended

let live_work_agrees_with_faults () =
  let fault = Spandex_net.Fault.uniform ~drop:0.02 ~dup:0.02 ~seed:1 () in
  live_work_agrees { tiny_params with Params.fault = Some fault } Config.sdd

(* ----- clean exploration --------------------------------------------------------- *)

let explore_clean config ~cpus ~gpus ~faults case () =
  let o = Checker.check ~budget_secs:60. ~case ~config ~cpus ~gpus ~faults () in
  (match o.Checker.o_violation with
  | None -> ()
  | Some (v, steps) ->
    Alcotest.failf "unexpected violation (%d steps): %s" (List.length steps)
      (Checker.violation_descr v));
  check_bool "not truncated" false o.Checker.o_truncated;
  check_bool "explored at least one state" true (o.Checker.o_states > 0)

(* Explored-state counts for a fixed (case, config) pair are part of the
   checker's determinism contract: same search, same count. *)
let state_count_stable () =
  let run () =
    let o =
      Checker.check ~case:Litmus.ww ~config:Config.sdd ~cpus:2 ~gpus:0
        ~faults:false ()
    in
    check_bool "no violation" true (o.Checker.o_violation = None);
    o.Checker.o_states
  in
  let a = run () and b = run () in
  check_int "same explored-state count" a b

(* LLC banking is a pure layout change (bank = set index mod banks): the
   protocol cannot observe it, so exploring with a banked LLC must visit
   exactly the same state space as the single-bank search. *)
let banked_llc_same_state_space () =
  let run banks =
    let o =
      Checker.check ~llc_banks:banks ~case:Litmus.ww ~config:Config.sdd
        ~cpus:2 ~gpus:0 ~faults:false ()
    in
    check_bool "no violation" true (o.Checker.o_violation = None);
    o.Checker.o_states
  in
  check_int "banked state count matches single-bank" (run 1) (run 2)

(* ----- seeded bugs --------------------------------------------------------------- *)

let tmp_cex name = Filename.concat (Filename.get_temp_dir_name ()) name

let seeded_bug_caught bug expected_kind () =
  let out = tmp_cex (Printf.sprintf "cex_%s.jsonl" (Checker.bug_name bug)) in
  let o =
    Checker.check_and_report ~budget_secs:60. ~seed_bug:bug ~case:Litmus.own
      ~config:Config.smd ~cpus:2 ~gpus:0 ~faults:false ~out ()
  in
  match o.Checker.o_violation with
  | None -> Alcotest.failf "seeded bug %s not caught" (Checker.bug_name bug)
  | Some (v, steps) ->
    check_bool
      (Printf.sprintf "%s produces the expected violation kind"
         (Checker.bug_name bug))
      true (expected_kind v);
    check_bool "counterexample is non-trivial" true (List.length steps > 0);
    (* The minimized counterexample must replay to the same violation. *)
    let _header, replayed, _steps, _sys = Checker.replay ~path:out () in
    (match replayed with
    | Some rv ->
      check_bool "replay reproduces a violation of the same kind" true
        (expected_kind rv)
    | None -> Alcotest.fail "replay of the counterexample found no violation");
    Sys.remove out

let deadlock_kind = function Checker.Deadlock (_ :: _) -> true | _ -> false

let stale_kind = function Checker.Data_mismatch _ -> true | _ -> false

(* ----- fault actions ------------------------------------------------------------- *)

let faults_explore_clean () =
  explore_clean Config.sdd ~cpus:2 ~gpus:0 ~faults:true Litmus.mp ()

(* ----- counterexample round-trip ------------------------------------------------- *)

let schedule_roundtrip () =
  let header =
    {
      Schedule.h_case = "ww";
      h_config = "SDD";
      h_cpus = 2;
      h_gpus = 0;
      h_banks = 2;
      h_faults = true;
      h_seed_bug = Some "skip-inv-ack";
      h_violation = "deadlock: llc.0 collecting acks";
    }
  in
  let steps =
    [
      (Schedule.Deliver 0, "ReqO txn=1 line=0 0->2");
      (Schedule.Drop 3, "RspO txn=1 line=0 2->0");
      (Schedule.Dup 4, "ReqV txn=2 line=1 1->2");
    ]
  in
  let path = tmp_cex "cex_roundtrip.jsonl" in
  Schedule.write ~path header steps;
  let header', actions = Schedule.read ~path in
  Sys.remove path;
  check_bool "header survives" true (header' = header);
  check_bool "actions survive" true (actions = List.map fst steps)

let tests =
  [
    Alcotest.test_case "stuck_on_swallowed_reply" `Quick
      stuck_on_swallowed_reply;
    Alcotest.test_case "live_work_agrees_all_configs" `Quick
      live_work_agrees_all_configs;
    Alcotest.test_case "live_work_agrees_with_faults" `Quick
      live_work_agrees_with_faults;
    Alcotest.test_case "schedule_roundtrip" `Quick schedule_roundtrip;
    Alcotest.test_case "mesi_ww_clean" `Quick
      (explore_clean Config.smd ~cpus:2 ~gpus:0 ~faults:false Litmus.ww);
    Alcotest.test_case "denovo_own_clean" `Quick
      (explore_clean Config.sdd ~cpus:2 ~gpus:0 ~faults:false Litmus.own);
    Alcotest.test_case "gpu_mp_clean" `Quick
      (explore_clean Config.sdg ~cpus:1 ~gpus:1 ~faults:false Litmus.mp);
    Alcotest.test_case "state_count_stable" `Quick state_count_stable;
    Alcotest.test_case "banked_llc_same_state_space" `Quick
      banked_llc_same_state_space;
    Alcotest.test_case "faults_mp_clean" `Quick faults_explore_clean;
    Alcotest.test_case "seeded_skip_inv_ack_deadlocks" `Quick
      (seeded_bug_caught Checker.Skip_inv_ack deadlock_kind);
    Alcotest.test_case "seeded_ack_no_inv_stale_data" `Quick
      (seeded_bug_caught Checker.Ack_no_inv stale_kind);
  ]
