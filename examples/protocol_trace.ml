(* Message-level protocol trace of the paper's Figure 1 scenarios.

     dune exec examples/protocol_trace.exe

   Recreates the four request flows of Figure 1 on a tiny flat Spandex
   system — a DeNovo "accelerator", a GPU-coherence cache, and a MESI cache
   attached to one Spandex LLC — with the transaction trace sink armed, so
   every Req/Rsp/probe is replayed in order afterwards, followed by the
   per-request-class latency histograms:

     1a: word-granularity ReqO then ReqWT to disjoint words of one line
     1b: ReqWT+data (atomic at the LLC) for remotely owned data (RvkO)
     1c: line-granularity ReqV with a remote owner (direct response)
     1d: word ReqWT hitting a line-granularity MESI owner (partial
         downgrade + write-back of the rest) *)

module Engine = Spandex_sim.Engine
module Trace = Spandex_sim.Trace
module Hist = Spandex_util.Hist
module Network = Spandex_net.Network
module Addr = Spandex_proto.Addr
module Amo = Spandex_proto.Amo
module Dram = Spandex_mem.Dram
module Llc = Spandex.Llc
module Backing = Spandex.Backing
module Port = Spandex_device.Port

let acc_id = 0 (* DeNovo "custom accelerator" *)
let gpu_id = 1
let mesi_id = 2
let llc_id = 3

let device_name = function
  | 0 -> "acc"
  | 1 -> "gpu"
  | 2 -> "mesi"
  | 3 -> "llc"
  | d -> Printf.sprintf "dev%d" d

let () =
  let trace =
    Trace.create { Trace.capacity = 1 lsl 12; sample_every = 1 lsl 20 }
  in
  let engine = Engine.create ~trace () in
  let net = Network.create engine (Network.flat_topology ~latency:4) in
  let dram = Dram.create engine ~latency:20 ~service_interval:1 in
  let _llc =
    Llc.create ~name:(device_name llc_id) engine net
      (Backing.dram engine dram)
      {
        Llc.llc_id;
        banks = 1;
        sets = 64;
        ways = 4;
        access_latency = 2;
        is_mesi = (fun id -> id = mesi_id);
        reqs_policy = Llc.Reqs_auto;
      }
  in
  let acc =
    Spandex_denovo.Denovo_l1.create ~name:(device_name acc_id) engine net
      {
        Spandex_denovo.Denovo_l1.id = acc_id;
        llc_id;
        llc_banks = 1;
        sets = 8;
        ways = 2;
        mshrs = 8;
        sb_capacity = 8;
        hit_latency = 1;
        coalesce_window = 2;
        max_reqv_retries = 1;
        atomics_at_llc = false;
        region_of = (fun _ -> 0);
        policy = Spandex_l1.Spandex_policy.Static_own;
      }
  in
  let gpu =
    Spandex_gpucoh.Gpu_l1.create ~name:(device_name gpu_id) engine net
      {
        Spandex_gpucoh.Gpu_l1.id = gpu_id;
        llc_id;
        llc_banks = 1;
        sets = 8;
        ways = 2;
        mshrs = 8;
        sb_capacity = 8;
        hit_latency = 1;
        coalesce_window = 2;
        max_reqv_retries = 1;
      }
  in
  let mesi =
    Spandex_mesi.Mesi_l1.create ~name:(device_name mesi_id) engine net
      {
        Spandex_mesi.Mesi_l1.id = mesi_id;
        llc_id;
        llc_banks = 1;
        sets = 8;
        ways = 2;
        mshrs = 8;
        sb_capacity = 8;
        hit_latency = 1;
        coalesce_window = 2;
        notify_home_on_fwd_getm = false;
      }
  in
  let acc_p = Spandex_denovo.Denovo_l1.port acc in
  let gpu_p = Spandex_gpucoh.Gpu_l1.port gpu in
  let mesi_p = Spandex_mesi.Mesi_l1.port mesi in
  let finished = ref false in
  (* Each scenario is a CPS step; run them in sequence with banners. *)
  let fig_1a k =
    (* Accelerator takes word 0 with a data-less ReqO; the GPU writes word 5
       of the same line through — no false sharing, no blocking. *)
    acc_p.Port.store (Addr.make ~line:10 ~word:0) ~value:1 ~k:(fun () ->
        acc_p.Port.release ~k:(fun () ->
            gpu_p.Port.store (Addr.make ~line:10 ~word:5) ~value:2
              ~k:(fun () -> gpu_p.Port.release ~k)))
  in
  let fig_1b k =
    (* GPU atomic performed at the LLC: the accelerator's ownership of word
       0 is revoked with RvkO and the line written back first. *)
    gpu_p.Port.rmw (Addr.make ~line:10 ~word:0) (Amo.Add 1) ~k:(fun old ->
        assert (old = 1);
        k ())
  in
  let fig_1c k =
    (* GPU line-granularity ReqV: the LLC answers the words it holds and
       forwards the accelerator-owned word, which responds directly. *)
    acc_p.Port.store (Addr.make ~line:11 ~word:3) ~value:33 ~k:(fun () ->
        acc_p.Port.release ~k:(fun () ->
            gpu_p.Port.acquire ~k:(fun () ->
                gpu_p.Port.load (Addr.make ~line:11 ~word:3) ~k:(fun v ->
                    assert (v = 33);
                    k ()))))
  in
  let fig_1d k =
    (* GPU word write-through against a MESI line owner: the MESI cache is
       revoked for the written word and writes back the rest of the line. *)
    mesi_p.Port.store (Addr.make ~line:12 ~word:1) ~value:7 ~k:(fun () ->
        mesi_p.Port.release ~k:(fun () ->
            gpu_p.Port.store (Addr.make ~line:12 ~word:9) ~value:8
              ~k:(fun () -> gpu_p.Port.release ~k)))
  in
  let steps =
    [
      ("Fig 1a: ReqO word 0 (accelerator); ReqWT word 5 (GPU), same line", fig_1a);
      ("Fig 1b: GPU ReqWT+data on word 0 owned by the accelerator (RvkO)", fig_1b);
      ("Fig 1c: GPU line ReqV with an accelerator-owned word (direct rsp)", fig_1c);
      ("Fig 1d: GPU word ReqWT on a MESI-owned line (partial downgrade)", fig_1d);
    ]
  in
  (* Banners are stamped with the cycle each scenario starts at, then
     interleaved with the recorded message events during the replay. *)
  let banners = ref [] in
  let rec run_steps = function
    | [] -> finished := true
    | (name, step) :: rest ->
      banners := (Engine.now engine, name) :: !banners;
      step (fun () -> run_steps rest)
  in
  run_steps steps;
  let cycles =
    Engine.run engine
      ~until_done:(fun () -> !finished && Engine.live_work engine = [])
  in
  let pending_banners = ref (List.rev !banners) in
  let flush_banners upto =
    let rec go () =
      match !pending_banners with
      | (cycle, name) :: rest when cycle <= upto ->
        Printf.printf "\n--- %s (cycle %d)\n" name cycle;
        pending_banners := rest;
        go ()
      | _ -> ()
    in
    go ()
  in
  Trace.iter trace ~f:(fun ev ->
      match ev with
      | Trace.Msg_send { time; src; dst; txn; kind; line } ->
        flush_banners time;
        Printf.printf "%4d  %-4s -> %-4s %-10s line=%d txn=%d\n" time
          (device_name src) (device_name dst) (Trace.kind_name kind) line txn
      | _ -> ());
  Printf.printf "\nper-class latency (cycles):\n";
  List.iter
    (fun (cls, (s : Hist.summary)) ->
      Printf.printf "  %-10s count=%-3d p50=%-4d p99=%-4d max=%d\n" cls
        s.Hist.count s.Hist.p50 s.Hist.p99 s.Hist.max)
    (Trace.latency_summaries trace);
  Printf.printf "\nall four Figure-1 scenarios completed in %d cycles.\n" cycles
