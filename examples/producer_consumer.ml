(* Producer/consumer with protocol introspection.

     dune exec examples/producer_consumer.exe

   Builds a flat Spandex system by hand — network, DRAM, LLC, one DeNovo
   CPU L1, one GPU-coherence L1 — drives it through a produce/consume
   handshake, and prints the coherence state the paper's §III describes:
   word-granularity ownership at the LLC, Valid/Owned state at the DeNovo
   cache, and the request mix on the network. *)

module Engine = Spandex_sim.Engine
module Network = Spandex_net.Network
module Addr = Spandex_proto.Addr
module Dram = Spandex_mem.Dram
module Llc = Spandex.Llc
module Backing = Spandex.Backing
module Denovo_l1 = Spandex_denovo.Denovo_l1
module Gpu_l1 = Spandex_gpucoh.Gpu_l1
module Port = Spandex_device.Port

let cpu_id = 0
let gpu_id = 1
let llc_id = 2

let () =
  let engine = Engine.create () in
  let net = Network.create engine (Network.flat_topology ~latency:8) in
  let dram = Dram.create engine ~latency:100 ~service_interval:2 in
  let llc =
    Llc.create ~name:"llc" engine net
      (Backing.dram engine dram)
      {
        Llc.llc_id;
        banks = 1;
        sets = 256;
        ways = 8;
        access_latency = 8;
        is_mesi = (fun _ -> false);
        reqs_policy = Llc.Reqs_auto;
      }
  in
  let cpu =
    Denovo_l1.create ~name:"cpu" engine net
      {
        Denovo_l1.id = cpu_id;
        llc_id;
        llc_banks = 1;
        sets = 16;
        ways = 4;
        mshrs = 16;
        sb_capacity = 16;
        hit_latency = 1;
        coalesce_window = 4;
        max_reqv_retries = 1;
        atomics_at_llc = false;
        region_of = (fun _ -> 0);
        policy = Spandex_l1.Spandex_policy.Static_own;
      }
  in
  let gpu =
    Gpu_l1.create ~name:"gpu" engine net
      {
        Gpu_l1.id = gpu_id;
        llc_id;
        llc_banks = 1;
        sets = 16;
        ways = 4;
        mshrs = 16;
        sb_capacity = 16;
        hit_latency = 1;
        coalesce_window = 4;
        max_reqv_retries = 1;
      }
  in
  let cpu_port = Denovo_l1.port cpu and gpu_port = Gpu_l1.port gpu in
  let addr i = Addr.make ~line:5 ~word:i in
  let phase name = Printf.printf "\n== %s (cycle %d)\n" name (Engine.now engine) in
  let show_states () =
    Printf.printf "  LLC line 5: state=%s owned-words=%d sharers=%d\n"
      (match Llc.line_state llc ~line:5 with
      | Some s -> Spandex_proto.State.llc_line_to_string s
      | None -> "absent")
      (Spandex_util.Mask.count (Llc.owned_mask llc ~line:5))
      (List.length (Llc.sharers llc ~line:5));
    Printf.printf "  DeNovo CPU: word0 %s, word1 %s | GPU valid lines: %d\n"
      (Spandex_proto.State.device_to_string (Denovo_l1.word_state cpu (addr 0)))
      (Spandex_proto.State.device_to_string (Denovo_l1.word_state cpu (addr 1)))
      (Gpu_l1.valid_lines gpu)
  in
  let finished = ref false in
  (* The driver script: CPU produces 8 words (gaining word ownership),
     releases; GPU acquires, reads them, writes a reply; CPU reads it. *)
  let rec produce i k =
    if i = 8 then k ()
    else cpu_port.Port.store (addr i) ~value:(100 + i) ~k:(fun () -> produce (i + 1) k)
  in
  let rec consume i k =
    if i = 8 then k ()
    else
      gpu_port.Port.load (addr i) ~k:(fun v ->
          assert (v = 100 + i);
          consume (i + 1) k)
  in
  produce 0 (fun () ->
      cpu_port.Port.release ~k:(fun () ->
          phase "CPU produced words 0-7 and released";
          show_states ();
          gpu_port.Port.acquire ~k:(fun () ->
              consume 0 (fun () ->
                  phase "GPU consumed words 0-7";
                  show_states ();
                  gpu_port.Port.store (addr 15) ~value:999 ~k:(fun () ->
                      gpu_port.Port.release ~k:(fun () ->
                          cpu_port.Port.acquire ~k:(fun () ->
                              cpu_port.Port.load (addr 15) ~k:(fun v ->
                                  assert (v = 999);
                                  phase "CPU read the GPU's reply";
                                  show_states ();
                                  finished := true))))))));
  let cycles =
    Engine.run engine
      ~until_done:(fun () -> !finished && Engine.live_work engine = [])
  in
  Printf.printf "\nfinished in %d cycles; network messages by kind:\n" cycles;
  List.iter
    (fun (k, v) -> Printf.printf "  %-12s %d\n" k v)
    (Spandex_util.Stats.to_assoc (Network.stats net))
