module Stats = Spandex_util.Stats
module Fp = Spandex_util.Fingerprint
module Engine = Spandex_sim.Engine
module Trace = Spandex_sim.Trace
module Msg = Spandex_proto.Msg
module Txn = Spandex_proto.Txn
module Network = Spandex_net.Network
module Frames = Spandex_mem.Cache_frame

type items = Engine.pending_work list

type 'meta view = {
  busy : 'meta -> bool;
  blocked : 'meta -> int;
  describe : 'meta -> (string -> Engine.pending_work) -> items -> items;
}

type probes = {
  tag : string;
  lines_metric : string;
  lines_help : string;
  pending_help : string;
}

(* Everything mutable a bank touches lives in its own record.  The reply
   cache partitions like the frame: a txn's request targets one line, so
   its record lives in one bank. *)
type bank = {
  txns : Txn.allocator;  (* probe ids: drawn in bank arrival order. *)
  stats : Stats.t;
  req_keys : Stats.key array;  (* "req.<kind>" by [Msg.req_kind_index]. *)
  replay : (int, Msg.t list ref) Hashtbl.t option;  (* fault runs only. *)
}

type 'meta t = {
  engine : Engine.t;
  net : Network.t;
  first_id : Msg.device_id;
  n_banks : int;
  latency : int;
  frame : 'meta Frames.t;
  banks : bank array;
  guarded : Msg.req_kind -> bool;
  trace : Trace.t;
  n_replay : int;  (* interned trace name (0 on a disabled sink). *)
  probes : probes;
  view : 'meta view;
}

let bank_index t line = Spandex_proto.Addr.bank_of ~banks:t.n_banks line
let bank t line = t.banks.(bank_index t line)
let endpoint t ~line = t.first_id + bank_index t line
let frame t = t.frame
let stats t ~line = (bank t line).stats
let bank_stats t b = t.banks.(b).stats
let bank_name name b = Printf.sprintf "%s.b%d" name b

let payload (msg : Msg.t) =
  match msg.Msg.payload with
  | Msg.Data v -> v
  | Msg.No_data -> invalid_arg "Home: request missing data payload"

let count_req t ~line kind =
  let bk = bank t line in
  Stats.bump bk.stats bk.req_keys.(Msg.req_kind_index kind)

(* State transitions happen at arrival (the serialization point); outgoing
   messages are charged the home's access latency. *)
let send t (msg : Msg.t) = Engine.send_later t.engine ~delay:t.latency msg

let respond t (req : Msg.t) ~kind ~mask ?payload () =
  let msg =
    Msg.make ~txn:req.Msg.txn ~kind:(Msg.rsp kind) ~line:req.Msg.line ~mask
      ?payload ~src:(endpoint t ~line:req.Msg.line) ~dst:req.Msg.requestor ()
  in
  (match (bank t req.Msg.line).replay with
  | Some table -> (
    match Hashtbl.find table req.Msg.txn with
    | sent -> sent := msg :: !sent
    | exception Not_found -> ())
  | None -> ());
  send t msg

let forward t (req : Msg.t) ~kind ~dst ~mask ?demand () =
  send t
    (Msg.make ~txn:req.Msg.txn ~kind:(Msg.req kind) ~line:req.Msg.line ~mask
       ?demand ~src:(endpoint t ~line:req.Msg.line) ~dst
       ~requestor:req.Msg.requestor ~fwd:true ())

let probe t ~kind ~dst ~line ~mask =
  send t
    (Msg.make
       ~txn:(Txn.next (bank t line).txns)
       ~kind:(Msg.probe kind) ~line ~mask ~src:(endpoint t ~line) ~dst ())

(* The at-most-once filter; only network arrivals pass through it. *)
let arrival t handle (msg : Msg.t) =
  let bk = bank t msg.Msg.line in
  match (msg.Msg.kind, bk.replay) with
  | Msg.Req k, Some table when (not msg.Msg.fwd) && t.guarded k -> (
    match Hashtbl.find table msg.Msg.txn with
    | sent ->
      Stats.incr bk.stats "replayed";
      if Trace.on t.trace then
        Trace.instant t.trace ~time:(Engine.now t.engine)
          ~dev:(endpoint t ~line:msg.Msg.line) ~name:t.n_replay
          ~txn:msg.Msg.txn ~arg:(List.length !sent);
      List.iter (send t) (List.rev !sent)
    | exception Not_found ->
      Hashtbl.add table msg.Msg.txn (ref []);
      handle msg)
  | _ -> handle msg

let listen t handle =
  let handler =
    if Network.faults_enabled t.net then arrival t handle else handle
  in
  for b = 0 to t.n_banks - 1 do
    Network.register t.net ~id:(t.first_id + b) handler
  done

let fold_bank t b ~init ~f =
  Frames.fold_bank t.frame ~banks:t.n_banks b ~init ~f

let create engine net ~name ~first_id ~banks ~sets ~ways ~access_latency
    ~guarded probes view =
  if banks < 1 || sets mod banks <> 0 then
    invalid_arg (name ^ ": banks must divide sets");
  let make_bank b =
    let stats = Stats.create () in
    {
      txns = Txn.allocator ~id:(first_id + b);
      stats;
      req_keys =
        (* [Msg.req_kind_index] follows [Msg.all_req_kinds]. *)
        Array.of_list
          (List.map
             (fun k -> Stats.key stats ("req." ^ Msg.req_kind_name k))
             Msg.all_req_kinds);
      replay =
        (if Network.faults_enabled net then Some (Hashtbl.create 256)
         else None);
    }
  in
  let trace = Engine.trace engine in
  let t =
    {
      engine;
      net;
      first_id;
      n_banks = banks;
      latency = access_latency;
      frame = Frames.create ~sets ~ways;
      banks = Array.init banks make_bank;
      guarded;
      trace;
      n_replay = Trace.name trace (probes.tag ^ ".replay");
      probes;
      view;
    }
  in
  for b = 0 to banks - 1 do
    let device = bank_name name b in
    Engine.register_pending_source engine (fun () ->
        fold_bank t b ~init:[] ~f:(fun acc ~line m ->
            view.describe m
              (fun what ->
                {
                  Engine.pw_device = device;
                  pw_txn = -1;
                  pw_line = line;
                  pw_what = what;
                })
              acc))
  done;
  t

let register_metrics t b ~label ~name reg =
  let module Metrics = Spandex_obs.Metrics in
  let p = t.probes in
  let labels = [ ("bank", string_of_int b); ("device", label) ] in
  let metric what = Printf.sprintf "spandex_%s_%s" p.tag what in
  let track what = (t.first_id + b, name ^ "." ^ what) in
  Metrics.gauge reg ~name:p.lines_metric ~labels ~help:p.lines_help (fun () ->
      Frames.count_bank t.frame ~banks:t.n_banks b);
  Metrics.gauge reg ~name:(metric "pending") ~labels ~track:(track "pending")
    ~help:p.pending_help (fun () ->
      fold_bank t b ~init:0 ~f:(fun n ~line:_ m ->
          if t.view.busy m then n + 1 else n));
  Metrics.gauge reg ~name:(metric "blocked") ~labels ~track:(track "blocked")
    ~help:"requests parked behind a pending line" (fun () ->
      fold_bank t b ~init:0 ~f:(fun n ~line:_ m -> n + t.view.blocked m));
  Metrics.counter reg ~name:(metric "replayed_total") ~labels
    ~help:"duplicate requests answered from the reply cache (fault runs)"
    (fun () -> Stats.get t.banks.(b).stats "replayed")

let parts t ~fingerprint =
  Array.init t.n_banks (fun b ->
      {
        Spandex_device.Part.stats = bank_stats t b;
        register_metrics = register_metrics t b;
        fingerprint = (if b = 0 then fingerprint else ignore);
        l1 = None;
      })

let by_key l = List.sort (fun (a, _) (b, _) -> compare a b) l

let fingerprint t fp ~line =
  Fp.tag fp t.probes.tag;
  let lines =
    Frames.fold t.frame ~init:[] ~f:(fun acc ~line m -> (line, m) :: acc)
    |> by_key
  in
  Fp.int fp (List.length lines);
  List.iter
    (fun (l, m) ->
      Fp.int fp l;
      line fp m)
    lines;
  if Network.faults_enabled t.net then
    Array.fold_left
      (fun acc bk ->
        match bk.replay with
        | None -> acc
        | Some table ->
          Hashtbl.fold (fun txn sent acc -> (txn, !sent) :: acc) table acc)
      [] t.banks
    |> by_key
    |> Fp.list fp (fun fp (txn, msgs) ->
           Fp.txn fp txn;
           Fp.list fp Msg.fingerprint msgs)
