(* Counters live in a flat [int array] indexed by interned keys; the
   string-keyed API resolves the key through a side hashtable and is kept
   for cold paths, tests, and reports.  Hot paths resolve [key] once at
   component creation and bump the array directly. *)

type t = {
  index : (string, int) Hashtbl.t;  (** name -> slot. *)
  mutable names : string array;  (** slot -> name, insertion order. *)
  mutable counts : int array;
  mutable touched : bool array;
      (** whether the slot was ever written (interning alone must not make
          a counter appear in [names]/[to_assoc], matching the lazy
          creation semantics of the original hashtable implementation). *)
  mutable is_max : bool array;
      (** whether the slot holds a running maximum ([set_max]/[max_key])
          rather than a sum; [merge_into] must combine such slots with max,
          not addition. *)
  mutable n : int;  (** slots in use. *)
}

type key = int

let create () =
  {
    index = Hashtbl.create 32;
    names = Array.make 32 "";
    counts = Array.make 32 0;
    touched = Array.make 32 false;
    is_max = Array.make 32 false;
    n = 0;
  }

let grow t =
  let cap = 2 * Array.length t.counts in
  let names = Array.make cap "" in
  let counts = Array.make cap 0 in
  let touched = Array.make cap false in
  let is_max = Array.make cap false in
  Array.blit t.names 0 names 0 t.n;
  Array.blit t.counts 0 counts 0 t.n;
  Array.blit t.touched 0 touched 0 t.n;
  Array.blit t.is_max 0 is_max 0 t.n;
  t.names <- names;
  t.counts <- counts;
  t.touched <- touched;
  t.is_max <- is_max

(* [Hashtbl.find] rather than [find_opt]: a string-keyed bump must not
   allocate an option. *)
let key t name =
  match Hashtbl.find t.index name with
  | k -> k
  | exception Not_found ->
    if t.n = Array.length t.counts then grow t;
    let k = t.n in
    t.n <- k + 1;
    t.names.(k) <- name;
    Hashtbl.add t.index name k;
    k

let bump_by t k n =
  t.counts.(k) <- t.counts.(k) + n;
  t.touched.(k) <- true

let bump t k = bump_by t k 1

let max_key t k n =
  if n > t.counts.(k) then t.counts.(k) <- n;
  t.touched.(k) <- true;
  t.is_max.(k) <- true

(* ----- string-keyed wrappers ------------------------------------------------ *)

let add t name n = bump_by t (key t name) n
let incr t name = add t name 1

let get t name =
  match Hashtbl.find_opt t.index name with
  | Some k -> t.counts.(k)
  | None -> 0

let set_max t name n = max_key t (key t name) n

let names t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if t.touched.(i) then acc := t.names.(i) :: !acc
  done;
  List.sort String.compare !acc

let to_assoc t = List.map (fun k -> (k, get t k)) (names t)

(* Joins [prefix ^ "." ^ name] in a caller-provided buffer: one string
   allocation per joined key instead of two intermediate concatenations. *)
let joined buf ~plen name =
  Buffer.truncate buf plen;
  Buffer.add_string buf name;
  Buffer.contents buf

let prefix_buf prefix =
  let buf = Buffer.create (String.length prefix + 24) in
  Buffer.add_string buf prefix;
  Buffer.add_char buf '.';
  (buf, Buffer.length buf)

let merge_into ~dst ~prefix src =
  let buf, plen = prefix_buf prefix in
  for i = 0 to src.n - 1 do
    if src.touched.(i) then
      if src.is_max.(i) then
        (* A running maximum stays a maximum under merge — summing two
           high-water marks would fabricate a depth never observed. *)
        set_max dst (joined buf ~plen src.names.(i)) src.counts.(i)
      else add dst (joined buf ~plen src.names.(i)) src.counts.(i)
  done

let get_prefixed t ~prefix name =
  let buf, plen = prefix_buf prefix in
  get t (joined buf ~plen name)
