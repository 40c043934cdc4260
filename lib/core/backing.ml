module Engine = Spandex_sim.Engine
module Dram = Spandex_mem.Dram
module Addr = Spandex_proto.Addr

type recall_kind = Recall_shared | Recall_excl

type recall_handler =
  line:int -> kind:recall_kind -> k:((int array * bool) option -> unit) -> unit

type t = {
  name : string;
  acquire : line:int -> excl:bool -> k:(int array option -> excl:bool -> unit) -> unit;
  writeback : line:int -> data:int array -> dirty:bool -> k:(unit -> unit) -> unit;
  set_recall_handler : recall_handler -> unit;
  quiescent : unit -> bool;
}

let dram engine dram =
  {
    name = "dram";
    acquire =
      (fun ~line ~excl:_ ~k ->
        Dram.read_line dram ~line ~k:(fun data -> k (Some data) ~excl:true));
    writeback =
      (fun ~line ~data ~dirty ~k ->
        if dirty then
          Dram.write_words dram ~line ~mask:Addr.full_mask ~values:data;
        Engine.schedule engine ~delay:0 k);
    set_recall_handler = (fun _ -> ());
    quiescent = (fun () -> true);
  }
