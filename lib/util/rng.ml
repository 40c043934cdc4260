type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

(* splitmix64: Steele, Lea, Flood 2014. *)
let bits64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let int t bound =
  assert (bound > 0);
  let r = Int64.to_int (bits64 t) land max_int in
  r mod bound

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (r /. 9007199254740992.0)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
