module Mask = Spandex_util.Mask

(* Index loops instead of [Mask.iter ~f]: these run on the per-message hot
   path and a capturing closure per call is measurable allocation. *)
let pack ~mask ~full =
  let out = Array.make (Mask.count mask) 0 in
  let i = ref 0 in
  for w = 0 to Array.length full - 1 do
    if Mask.mem mask w then begin
      out.(!i) <- full.(w);
      incr i
    end
  done;
  out

let unpack_into ~mask ~values ~full =
  let i = ref 0 in
  for w = 0 to Array.length full - 1 do
    if Mask.mem mask w then begin
      full.(w) <- values.(!i);
      incr i
    end
  done

let iter ~mask ~values ~f =
  let n = Array.length values in
  let i = ref 0 in
  let w = ref 0 in
  while !i < n do
    if Mask.mem mask !w then begin
      f ~word:!w ~value:values.(!i);
      incr i
    end;
    incr w
  done

(* An arbitrary but fixed hash of the address; distinct per word with very
   high probability, cheap, and stable across runs. *)
let init_word ~line ~word =
  let h = (line * 0x9E3779B1) + (word * 0x85EBCA77) in
  h land 0x3FFFFFFF lor 0x40000000

let fresh_line ~line =
  Array.init Addr.words_per_line (fun word -> init_word ~line ~word)
