type read_kind = Read_valid | Read_own
type write_kind = Write_through | Write_own

type t = {
  classify_read : line:int -> read_kind;
  classify_write : line:int -> write_kind;
  on_store_hit_owned : line:int -> unit;
  on_write_through : line:int -> unit;
  on_downgrade : line:int -> unit;
}

let nop ~line:_ = ()

let static ~read ~write =
  {
    classify_read = (fun ~line:_ -> read);
    classify_write = (fun ~line:_ -> write);
    on_store_hit_owned = nop;
    on_write_through = nop;
    on_downgrade = nop;
  }
