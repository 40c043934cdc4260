type read_kind = Read_valid | Read_own
type write_kind = Write_through | Write_own

type adaptive = {
  write_threshold : int;
  read_threshold : int;
  saturation : int;
  wt_window : int;
}

type spec = Static_own | Adaptive of adaptive

let sda =
  { write_threshold = 2; read_threshold = 0; saturation = 3; wt_window = 8 }

let adaptive_writes = Adaptive sda
let adaptive_full = Adaptive { sda with read_threshold = 2 }

(* Per-line saturating counters; lines never touched stay out of the
   tables entirely. *)
type t =
  | Static
  | Predictor of {
      a : adaptive;
      now : unit -> int;
      coalesce_window : int;
      reuse : (int, int) Hashtbl.t;
      read_misses : (int, int) Hashtbl.t;
      last_wt : (int, int) Hashtbl.t;
    }

let make spec ~now ~coalesce_window =
  match spec with
  | Static_own -> Static
  | Adaptive a ->
    Predictor
      {
        a;
        now;
        coalesce_window;
        reuse = Hashtbl.create 64;
        read_misses = Hashtbl.create 64;
        last_wt = Hashtbl.create 64;
      }

let count tbl line = Option.value ~default:0 (Hashtbl.find_opt tbl line)

let bump a tbl line =
  Hashtbl.replace tbl line (min a.saturation (count tbl line + 1))

let decay tbl line = Hashtbl.replace tbl line (max 0 (count tbl line - 1))

let classify_read t ~line =
  match t with
  | Predictor p when p.a.read_threshold > 0 ->
    let seen = count p.read_misses line in
    bump p.a p.read_misses line;
    if seen >= p.a.read_threshold then Read_own else Read_valid
  | Static | Predictor _ -> Read_valid

let classify_write t ~line =
  match t with
  | Static -> Write_own
  | Predictor p ->
    (* A quick re-write after a write-through is the evidence that
       ownership would have paid off. *)
    (match Hashtbl.find_opt p.last_wt line with
    | Some cycle when p.now () - cycle < p.a.wt_window * p.coalesce_window ->
      bump p.a p.reuse line
    | _ -> ());
    if count p.reuse line < p.a.write_threshold then Write_through
    else Write_own

let on_store_hit_owned t ~line =
  match t with Static -> () | Predictor p -> bump p.a p.reuse line

let on_write_through t ~line =
  match t with
  | Static -> ()
  | Predictor p -> Hashtbl.replace p.last_wt line (p.now ())

let on_downgrade t ~line =
  match t with
  | Static -> ()
  | Predictor p ->
    decay p.reuse line;
    if p.a.read_threshold > 0 then decay p.read_misses line
