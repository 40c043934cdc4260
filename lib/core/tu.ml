module Mask = Spandex_util.Mask
module Msg = Spandex_proto.Msg
module Addr = Spandex_proto.Addr
module Linedata = Spandex_proto.Linedata

type result = {
  mutable data_mask : Mask.t;
  values : int array;
  mutable acked : Mask.t;
  mutable nacked : Mask.t;
}

type t = { demand : Mask.t; mutable acc : result; mutable done_ : bool }

let create ~demand =
  {
    demand;
    acc =
      {
        data_mask = Mask.empty;
        values = Array.make Addr.words_per_line 0;
        acked = Mask.empty;
        nacked = Mask.empty;
      };
    done_ = false;
  }

let covered acc = Mask.union acc.data_mask (Mask.union acc.acked acc.nacked)

let absorb t (msg : Msg.t) =
  assert (not t.done_);
  let acc = t.acc in
  (match msg.Msg.kind with
  | Msg.Rsp Msg.Nack -> acc.nacked <- Mask.union acc.nacked msg.Msg.mask
  | Msg.Rsp _ -> (
    match msg.Msg.payload with
    | Msg.Data values ->
      Linedata.unpack_into ~mask:msg.Msg.mask ~values ~full:acc.values;
      acc.data_mask <- Mask.union acc.data_mask msg.Msg.mask
    | Msg.No_data -> acc.acked <- Mask.union acc.acked msg.Msg.mask)
  | Msg.Req _ | Msg.Probe _ -> invalid_arg "Tu.absorb: not a response");
  if Mask.subset t.demand (covered t.acc) then begin
    t.done_ <- true;
    Some t.acc
  end
  else None

module Fp = Spandex_util.Fingerprint

let fingerprint fp t =
  let r = t.acc in
  Fp.int fp (r.data_mask :> int);
  Fp.int fp (r.acked :> int);
  Fp.int fp (r.nacked :> int);
  Fp.masked_array fp ~mask:r.data_mask r.values
