type t = {
  load : Spandex_proto.Addr.t -> k:(int -> unit) -> unit;
  store : Spandex_proto.Addr.t -> value:int -> k:(unit -> unit) -> unit;
  rmw : Spandex_proto.Addr.t -> Spandex_proto.Amo.t -> k:(int -> unit) -> unit;
  acquire : k:(unit -> unit) -> unit;
  acquire_region : region:int -> k:(unit -> unit) -> unit;
  release : k:(unit -> unit) -> unit;
  quiescent : unit -> bool;
}
