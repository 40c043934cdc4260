type adaptive = {
  write_threshold : int;
  read_threshold : int;
  saturation : int;
  wt_window : int;
}

type spec = Static_own | Adaptive of adaptive

let legacy_adaptive =
  { write_threshold = 2; read_threshold = 0; saturation = 3; wt_window = 8 }

let adaptive_writes = Adaptive legacy_adaptive
let adaptive_full = Adaptive { legacy_adaptive with read_threshold = 2 }

let make spec ~now ~coalesce_window =
  match spec with
  | Static_own ->
    Policy.static ~read:Policy.Read_valid ~write:Policy.Write_own
  | Adaptive a ->
    (* Per-line saturating counters; lines never touched stay out of the
       tables entirely. *)
    let reuse = Hashtbl.create 64 in
    let read_misses = Hashtbl.create 64 in
    let last_wt = Hashtbl.create 64 in
    let count tbl line = Option.value ~default:0 (Hashtbl.find_opt tbl line) in
    let bump tbl line =
      Hashtbl.replace tbl line (min a.saturation (count tbl line + 1))
    in
    let decay tbl line = Hashtbl.replace tbl line (max 0 (count tbl line - 1)) in
    {
      Policy.classify_read =
        (fun ~line ->
          if a.read_threshold <= 0 then Policy.Read_valid
          else begin
            let seen = count read_misses line in
            bump read_misses line;
            if seen >= a.read_threshold then Policy.Read_own
            else Policy.Read_valid
          end);
      classify_write =
        (fun ~line ->
          (* A quick re-write after a write-through is the evidence that
             ownership would have paid off. *)
          (match Hashtbl.find_opt last_wt line with
          | Some cycle when now () - cycle < a.wt_window * coalesce_window ->
            bump reuse line
          | _ -> ());
          if count reuse line < a.write_threshold then Policy.Write_through
          else Policy.Write_own);
      on_store_hit_owned = (fun ~line -> bump reuse line);
      on_write_through = (fun ~line -> Hashtbl.replace last_wt line (now ()));
      on_downgrade =
        (fun ~line ->
          decay reuse line;
          if a.read_threshold > 0 then decay read_misses line);
    }
