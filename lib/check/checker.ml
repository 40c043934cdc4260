module Engine = Spandex_sim.Engine
module Network = Spandex_net.Network
module Fault = Spandex_net.Fault
module Msg = Spandex_proto.Msg
module Addr = Spandex_proto.Addr
module Mask = Spandex_util.Mask
module Fp = Spandex_util.Fingerprint
module Check_log = Spandex_device.Check_log
module Config = Spandex_system.Config
module R = Spandex_system.Run

(* ----- seeded bugs --------------------------------------------------------------- *)

type bug = Skip_inv_ack | Ack_no_inv

let bug_name = function
  | Skip_inv_ack -> "skip-inv-ack"
  | Ack_no_inv -> "ack-no-inv"

let bug_of_name = function
  | "skip-inv-ack" -> Skip_inv_ack
  | "ack-no-inv" -> Ack_no_inv
  | s -> invalid_arg (Printf.sprintf "unknown seeded bug %S" s)

let all_bugs = [ Skip_inv_ack; Ack_no_inv ]

(* ----- violations ---------------------------------------------------------------- *)

type violation =
  | Deadlock of Engine.pending_work list
  | Swmr of { line : int; word : int; owners : string list }
  | Llc_mismatch of string
  | Data_mismatch of string
  | Crash of string

let violation_descr = function
  | Deadlock work -> Format.asprintf "deadlock: %a" Engine.pp_work work
  | Swmr { line; word; owners } ->
    Printf.sprintf "SWMR violation: line %d word %d owned by [%s]" line word
      (String.concat "; " owners)
  | Llc_mismatch d -> "LLC ownership registration mismatch: " ^ d
  | Data_mismatch d -> "data-value mismatch: " ^ d
  | Crash d -> "execution crashed: " ^ d

(* ----- specification ------------------------------------------------------------- *)

type spec = {
  sp_case : Litmus.case;
  sp_config : Config.t;
  sp_cpus : int;
  sp_gpus : int;
  sp_banks : int;
  sp_faults : bool;
  sp_fault_budget : int;
  sp_seed_bug : bug option;
}

let header_of_spec spec ~violation =
  {
    Schedule.h_case = spec.sp_case.Litmus.case_name;
    h_config = spec.sp_config.Config.name;
    h_cpus = spec.sp_cpus;
    h_gpus = spec.sp_gpus;
    h_banks = spec.sp_banks;
    h_faults = spec.sp_faults;
    h_seed_bug = Option.map bug_name spec.sp_seed_bug;
    h_violation = violation;
  }

let spec_of_header (h : Schedule.header) =
  {
    sp_case = Litmus.by_name h.Schedule.h_case;
    sp_config = Config.by_name h.Schedule.h_config;
    sp_cpus = h.Schedule.h_cpus;
    sp_gpus = h.Schedule.h_gpus;
    sp_banks = h.Schedule.h_banks;
    sp_faults = h.Schedule.h_faults;
    sp_fault_budget = max_int;
    sp_seed_bug = Option.map bug_of_name h.Schedule.h_seed_bug;
  }

(* ----- one execution ------------------------------------------------------------- *)

type exec = {
  sys : R.system;
  mutable pool : (int * Msg.t) list;  (** held messages, in send order. *)
  mutable next_seq : int;
  mutable faults_used : int;
}

exception Bad_schedule of string

let install_bug net views bug =
  List.iter
    (fun v ->
      let id = v.R.view_id in
      Network.wrap_handler net ~id (fun inner msg ->
          match (bug, msg.Msg.kind) with
          | Skip_inv_ack, Msg.Probe Msg.Inv ->
            (* Swallow the invalidation: no state change, no Ack — the
               home collects acks forever. *)
            ()
          | Ack_no_inv, Msg.Probe Msg.Inv ->
            (* Acknowledge without invalidating: the local Shared copy
               survives and later reads return stale data. *)
            Network.send net
              (Msg.make ~txn:msg.Msg.txn ~kind:(Msg.Rsp Msg.Ack)
                 ~line:msg.Msg.line ~mask:msg.Msg.mask ~src:id
                 ~dst:msg.Msg.src ())
          | _ -> inner msg))
    views

let build_exec ?trace spec =
  let params =
    let p =
      Litmus.params ~cpus:spec.sp_cpus ~gpus:spec.sp_gpus
        ~faults:spec.sp_faults
    in
    let p = { p with Spandex_system.Params.llc_banks = spec.sp_banks } in
    match trace with
    | None -> p
    | Some t -> { p with Spandex_system.Params.trace = Some t }
  in
  let w = Litmus.workload spec.sp_case ~cpus:spec.sp_cpus ~gpus:spec.sp_gpus in
  let sys = R.build ~params ~config:spec.sp_config w in
  let ex = { sys; pool = []; next_seq = 0; faults_used = 0 } in
  Network.set_delivery_hook sys.R.sys_net (fun msg ~latency:_ ->
      ex.pool <- ex.pool @ [ (ex.next_seq, msg) ];
      ex.next_seq <- ex.next_seq + 1);
  Option.iter (install_bug sys.R.sys_net sys.R.sys_views) spec.sp_seed_bug;
  ex

(* Step queued events until the next choice point: with held messages we
   stop before jumping a long time gap (retry timers live tens of
   thousands of cycles out), but once the pool is empty we run the gap
   down so timer-driven recovery is part of the same execution. *)
let horizon = 1024

let stabilize ex =
  let eng = ex.sys.R.sys_engine in
  let rec go () =
    let t = Engine.next_time eng in
    if t = max_int then ()
    else if ex.pool <> [] && t - Engine.now eng > horizon then ()
    else if Engine.step eng then go ()
  in
  go ()

let describe_msg (m : Msg.t) = Format.asprintf "%a" Msg.pp m

let apply ex act =
  let seq = Schedule.seq_of act in
  match List.assoc_opt seq ex.pool with
  | None ->
    raise
      (Bad_schedule
         (Printf.sprintf "schedule names held message seq %d, but %s" seq
            (match ex.pool with
            | [] -> "the pool is empty"
            | l ->
              Printf.sprintf "held seqs are [%s]"
                (String.concat "; "
                   (List.map (fun (s, _) -> string_of_int s) l)))))
  | Some msg -> (
    match act with
    | Schedule.Deliver _ ->
      ex.pool <- List.remove_assoc seq ex.pool;
      Network.deliver_held ex.sys.R.sys_net msg
    | Schedule.Drop _ ->
      ex.pool <- List.remove_assoc seq ex.pool;
      ex.faults_used <- ex.faults_used + 1
    | Schedule.Dup _ ->
      (* Deliver a copy now; the original stays held and can be delivered
         (again) later — duplication plus arbitrary reordering. *)
      ex.faults_used <- ex.faults_used + 1;
      Network.deliver_held ex.sys.R.sys_net msg)

(* ----- invariant oracle ---------------------------------------------------------- *)

let word_owners ex ~line ~word =
  List.filter_map
    (fun v ->
      if Mask.mem (v.R.view_owned ~line) word then
        Some (v.R.view_id, v.R.view_name)
      else None)
    ex.sys.R.sys_views

(* INV1 (SWMR): at every choice point, each word has at most one L1
   owner. *)
let check_swmr ex lines =
  List.find_map
    (fun line ->
      let rec words w =
        if w >= Addr.words_per_line then None
        else
          match word_owners ex ~line ~word:w with
          | _ :: _ :: _ as owners ->
            Some (Swmr { line; word = w; owners = List.map snd owners })
          | _ -> words (w + 1)
      in
      words 0)
    lines

(* INV2: at termination the flat LLC's ownership registration agrees with
   the L1s' claims, word by word. *)
let check_llc_registration ex lines =
  match ex.sys.R.sys_llc with
  | None -> None
  | Some lv ->
    List.find_map
      (fun line ->
        let rec words w =
          if w >= Addr.words_per_line then None
          else
            let addr = Addr.make ~line ~word:w in
            let registered = lv.R.lv_owner_of addr in
            let claims = word_owners ex ~line ~word:w in
            match (registered, claims) with
            | None, [] -> words (w + 1)
            | Some d, [ (id, _) ] when d = id -> words (w + 1)
            | _ ->
              Some
                (Llc_mismatch
                   (Printf.sprintf
                      "line %d word %d: LLC registers %s, L1s claim [%s]"
                      line w
                      (match registered with
                      | None -> "no owner"
                      | Some d -> Printf.sprintf "device %d" d)
                      (String.concat "; " (List.map snd claims))))
        in
        words 0)
      lines

(* INV3: data-value coherence — the workloads' embedded [Check] ops must
   never observe a wrong value (litmus programs are DRF, so expected
   finals are schedule-independent). *)
let check_data ex =
  match List.concat_map Check_log.failures ex.sys.R.sys_check_logs with
  | [] -> None
  | f :: _ ->
    Some (Data_mismatch (Format.asprintf "%a" Check_log.pp_failure f))

let violation_at ex lines =
  match check_swmr ex lines with
  | Some v -> Some v
  | None -> (
    match check_data ex with
    | Some v -> Some v
    | None when ex.pool <> [] -> None
    | None -> (
      (* Terminal: stabilize drained the whole event queue. *)
      match Engine.live_work ex.sys.R.sys_engine with
      | [] -> check_llc_registration ex lines
      | w -> Some (Deadlock w)))

(* ----- schedule execution -------------------------------------------------------- *)

(* Execute [actions] from a fresh system, stabilizing and running the
   oracle after every step.  Returns the first violation (if any), the
   actions actually taken annotated with message summaries, and the final
   execution state. *)
let execute_schedule ?trace spec actions =
  let lines = spec.sp_case.Litmus.case_lines in
  let taken = ref [] in
  match build_exec ?trace spec with
  | exception e -> (Some (Crash (Printexc.to_string e)), [], None)
  | ex ->
    let result =
      try
        stabilize ex;
        let rec go acts =
          match violation_at ex lines with
          | Some v -> Some v
          | None -> (
            match acts with
            | [] -> None
            | a :: rest ->
              let descr =
                match List.assoc_opt (Schedule.seq_of a) ex.pool with
                | Some m -> describe_msg m
                | None -> "<not held>"
              in
              taken := (a, descr) :: !taken;
              apply ex a;
              stabilize ex;
              go rest)
        in
        go actions
      with
      | Bad_schedule _ as e -> raise e
      | e -> Some (Crash (Printexc.to_string e))
    in
    (result, List.rev !taken, Some ex)

let node_fingerprint ex =
  let b = Buffer.create 512 in
  Buffer.add_string b (ex.sys.R.sys_fingerprint ());
  Buffer.add_string b "#pool:";
  let digests =
    List.map
      (fun (_, m) ->
        let fp = Fp.create () in
        Msg.fingerprint fp m;
        Fp.digest fp)
      ex.pool
  in
  List.iter
    (fun d ->
      Buffer.add_string b d;
      Buffer.add_char b ';')
    (List.sort compare digests);
  Buffer.add_string b "#faults:";
  Buffer.add_string b (string_of_int ex.faults_used);
  Buffer.contents b

let enabled spec ex =
  let deliver = List.map (fun (s, m) -> (Schedule.Deliver s, m)) ex.pool in
  let faults =
    if spec.sp_faults && ex.faults_used < spec.sp_fault_budget then
      List.concat_map
        (fun (s, m) ->
          if Fault.faultable m then
            [ (Schedule.Drop s, m); (Schedule.Dup s, m) ]
          else [])
        ex.pool
    else []
  in
  deliver @ faults

(* ----- DFS with sleep sets and a state cache ------------------------------------- *)

(* Sleep-set entries are content-addressed (action kind + canonical
   message digest) rather than seq-addressed, so they stay meaningful
   when the same state is reached along different paths whose pool
   sequence numbers differ. *)
type sleep_entry = { sk_key : string; sk_dst : int; sk_line : int }

let action_key act (m : Msg.t) =
  let fp = Fp.create () in
  Msg.fingerprint fp m;
  Schedule.action_name act ^ ":" ^ Fp.digest fp

let subset a b = List.for_all (fun x -> List.mem x b) a

type outcome = {
  o_states : int;  (** distinct architectural states visited. *)
  o_executions : int;  (** schedules re-executed from the initial state. *)
  o_transitions : int;  (** delivery/fault choices taken. *)
  o_violation : (violation * (Schedule.action * string) list) option;
      (** minimized violating schedule with message summaries. *)
  o_truncated : bool;  (** state cap or wall-clock budget hit. *)
}

let default_completion_cap = 10_000

(* Shortest-prefix minimization: find the smallest k such that the first
   k actions of the violating schedule, completed by always delivering
   the oldest held message with no further faults, still violate. *)
let minimize spec schedule =
  let lines = spec.sp_case.Litmus.case_lines in
  let complete prefix =
    match execute_schedule spec prefix with
    | Some _, taken, _ -> Some (List.map fst taken)
    | None, taken, Some ex ->
      let extra = ref [] in
      let rec go n =
        if n > default_completion_cap then None
        else
          match violation_at ex lines with
          | Some _ -> Some (List.map fst taken @ List.rev !extra)
          | None -> (
            match ex.pool with
            | [] -> None
            | (s, _) :: _ -> (
              let a = Schedule.Deliver s in
              match
                apply ex a;
                stabilize ex
              with
              | () ->
                extra := a :: !extra;
                go (n + 1)
              | exception _ ->
                Some (List.map fst taken @ List.rev (a :: !extra))))
      in
      go 0
    | None, _, None -> None
  in
  let n = List.length schedule in
  let rec try_k k =
    if k >= n then schedule
    else
      let prefix = List.filteri (fun i _ -> i < k) schedule in
      match complete prefix with
      | Some full -> full
      | None -> try_k (k + 1)
  in
  try_k 0

let check ?(max_states = 200_000) ?(budget_secs = 120.) ?(fault_budget = 1)
    ?(reduce = true) ?seed_bug ?(llc_banks = 1) ~case ~config ~cpus ~gpus
    ~faults () =
  let spec =
    {
      sp_case = case;
      sp_config = config;
      sp_cpus = cpus;
      sp_gpus = gpus;
      sp_banks = llc_banks;
      sp_faults = faults;
      sp_fault_budget = fault_budget;
      sp_seed_bug = seed_bug;
    }
  in
  let visited : (string, string list) Hashtbl.t = Hashtbl.create 4096 in
  let states = ref 0 and execs = ref 0 and transitions = ref 0 in
  let viol = ref None and truncated = ref false in
  let deadline = Sys.time () +. budget_secs in
  let stop () = !viol <> None || !truncated in
  let rec explore prefix sleep =
    if stop () then ()
    else if Sys.time () > deadline then truncated := true
    else begin
      incr execs;
      match execute_schedule spec prefix with
      | Some v, taken, _ -> viol := Some (v, prefix, taken)
      | None, _, None -> ()
      | None, _, Some ex ->
        let fpr = node_fingerprint ex in
        let sleep_keys =
          List.sort_uniq compare (List.map (fun s -> s.sk_key) sleep)
        in
        let explored_before = Hashtbl.find_opt visited fpr in
        let covered =
          match explored_before with
          (* A previous visit explored at least every action we would:
             its sleep set was a subset of ours. *)
          | Some old -> subset old sleep_keys
          | None -> false
        in
        if not covered then begin
          if explored_before = None then incr states;
          Hashtbl.replace visited fpr
            (match explored_before with
            | None -> sleep_keys
            | Some old -> List.filter (fun k -> List.mem k sleep_keys) old);
          if !states > max_states then truncated := true
          else
            let acts =
              List.filter
                (fun (a, m) -> not (List.mem (action_key a m) sleep_keys))
                (enabled spec ex)
            in
            let z = ref sleep in
            List.iter
              (fun (a, m) ->
                if not (stop ()) then begin
                  incr transitions;
                  let child_sleep =
                    (* Keep only sleeping actions independent of [a]:
                       different destination and different line (pool
                       identity is part of the content key). *)
                    List.filter
                      (fun s ->
                        s.sk_dst <> m.Msg.dst && s.sk_line <> m.Msg.line)
                      !z
                  in
                  explore (prefix @ [ a ]) child_sleep;
                  z :=
                    { sk_key = action_key a m;
                      sk_dst = m.Msg.dst;
                      sk_line = m.Msg.line }
                    :: !z
                end)
              acts
        end
    end
  in
  explore [] [];
  let violation =
    match !viol with
    | None -> None
    | Some (v0, prefix, _) ->
      let schedule = if reduce then minimize spec prefix else prefix in
      let v, steps, _ = execute_schedule spec schedule in
      Some (Option.value v ~default:v0, steps)
  in
  {
    o_states = !states;
    o_executions = !execs;
    o_transitions = !transitions;
    o_violation = violation;
    o_truncated = !truncated;
  }

(* ----- counterexample I/O and replay --------------------------------------------- *)

let write_counterexample ~path spec (v, steps) =
  Schedule.write ~path (header_of_spec spec ~violation:(violation_descr v)) steps

let check_and_report ?max_states ?budget_secs ?fault_budget ?reduce ?seed_bug
    ?(llc_banks = 1) ~case ~config ~cpus ~gpus ~faults ~out () =
  let outcome =
    check ?max_states ?budget_secs ?fault_budget ?reduce ?seed_bug ~llc_banks
      ~case ~config ~cpus ~gpus ~faults ()
  in
  (match outcome.o_violation with
  | Some cex ->
    let spec =
      {
        sp_case = case;
        sp_config = config;
        sp_cpus = cpus;
        sp_gpus = gpus;
        sp_banks = llc_banks;
        sp_faults = faults;
        sp_fault_budget = Option.value fault_budget ~default:1;
        sp_seed_bug = seed_bug;
      }
    in
    write_counterexample ~path:out spec cex
  | None -> ());
  outcome

let replay ?trace ~path () =
  let header, actions = Schedule.read ~path in
  let spec = spec_of_header header in
  let v, steps, ex = execute_schedule ?trace spec actions in
  (header, v, steps, Option.map (fun ex -> ex.sys) ex)
