(* Domain-local, not a plain global: the sweep runner executes independent
   simulations on worker domains, and a shared counter would both race and
   break the bit-identical-to-sequential guarantee.  Each simulation calls
   [reset] first, so ids depend only on the simulation's own event order,
   never on which domain runs it. *)
let counter_key = Domain.DLS.new_key (fun () -> ref 0)

let fresh () =
  let counter = Domain.DLS.get counter_key in
  incr counter;
  !counter

let reset () = Domain.DLS.get counter_key := 0

(* Per-device allocators make an id depend only on the issuing device and
   how many ids that device has drawn — never on the global interleave of
   events across devices, so a protocol change in one device does not
   renumber every other device's transactions; the committed goldens pin
   these ids.  Ids are [id + k * 4096]: disjoint per device as long as device
   ids stay below 4096 (they are small dense ints), and [k] starts at 1 so
   no allocator ever returns its bare device id twice. *)
type allocator = { id : int; mutable next : int }

let allocator ~id =
  if id < 0 || id >= 4096 then invalid_arg "Txn.allocator: id out of range";
  { id; next = 1 }

let next a =
  let k = a.next in
  a.next <- k + 1;
  a.id + (k lsl 12)
