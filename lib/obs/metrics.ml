(* Time-series metrics registry — the simulator's one probe registry.

   Probes are registered once at system-build time and read by the
   engine's inline sampler at the first event dispatched past each
   multiple of the cadence — the sampler never enqueues events, so a
   metrics-on run is bit-identical to a metrics-off run.  Every sample is
   (cycle, value) appended to a growable column per series; export renders
   the columns as OpenMetrics text, CSV, or Chrome trace-event counter
   tracks.

   The same registrations also feed the trace sink: a registry made by
   [of_trace] keeps no series, and writes every gauge registered with a
   [~track] into the trace as a counter event instead.

   A registry is single-domain state, owned by one simulation like every
   other component, so parallel sweep workers never share one. *)

module Trace = Spandex_sim.Trace

type spec = { sample_every : int }

let default_spec = { sample_every = 64 }

type kind = Counter | Gauge | Ratio

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Ratio -> "ratio"

type series = {
  sr_name : string;
  sr_labels : (string * string) list;
  sr_help : string;
  sr_kind : kind;
  sr_probe : unit -> int * int;  (* (value, 1) or (num, den) for Ratio. *)
  mutable sr_times : int array;
  mutable sr_num : int array;
  mutable sr_den : int array;
  mutable sr_len : int;
}

(* A gauge feeding a trace counter track: [tk_name] is interned in the
   registry's trace sink. *)
type track = { tk_dev : int; tk_name : int; tk_probe : unit -> int }

type t = {
  enabled : bool;  (* keeps time series *)
  spec : spec;
  mutable series : series array;
  mutable n_series : int;
  trace : Trace.t;  (* receives the tracks; disabled for a series registry *)
  mutable tracks : track array;
  mutable n_tracks : int;
  mutable next_due : int;  (* [sample_due]'s cursor *)
}

let no_series : series array = [||]
let no_tracks : track array = [||]

let make ~enabled spec trace =
  {
    enabled;
    spec;
    series = no_series;
    n_series = 0;
    trace;
    tracks = no_tracks;
    n_tracks = 0;
    next_due = 0;
  }

let disabled = make ~enabled:false default_spec Trace.disabled

let create spec =
  if spec.sample_every < 1 then
    invalid_arg "Metrics.create: sample_every must be >= 1";
  make ~enabled:true spec Trace.disabled

let of_trace trace =
  if Trace.on trace then
    make ~enabled:false { sample_every = Trace.sample_every trace } trace
  else disabled

let on t = t.enabled
let sample_every t = t.spec.sample_every

let dummy_series =
  {
    sr_name = "";
    sr_labels = [];
    sr_help = "";
    sr_kind = Gauge;
    sr_probe = (fun () -> (0, 1));
    sr_times = [||];
    sr_num = [||];
    sr_den = [||];
    sr_len = 0;
  }

let add_series t s =
  if t.n_series = Array.length t.series then begin
    let grown =
      Array.make (max 8 (2 * Array.length t.series)) dummy_series
    in
    Array.blit t.series 0 grown 0 t.n_series;
    t.series <- grown
  end;
  t.series.(t.n_series) <- s;
  t.n_series <- t.n_series + 1

let fresh_series ~name ~labels ~help ~kind probe =
  {
    sr_name = name;
    sr_labels = labels;
    sr_help = help;
    sr_kind = kind;
    sr_probe = probe;
    sr_times = Array.make 64 0;
    sr_num = Array.make 64 0;
    sr_den = Array.make 64 0;
    sr_len = 0;
  }

let register t ~name ~labels ~help ~kind probe =
  if t.enabled then add_series t (fresh_series ~name ~labels ~help ~kind probe)

let counter t ~name ?(labels = []) ?(help = "") probe =
  register t ~name ~labels ~help ~kind:Counter (fun () -> (probe (), 1))

let add_track t tk =
  if t.n_tracks = Array.length t.tracks then begin
    let grown = Array.make (max 8 (2 * t.n_tracks)) tk in
    Array.blit t.tracks 0 grown 0 t.n_tracks;
    t.tracks <- grown
  end;
  t.tracks.(t.n_tracks) <- tk;
  t.n_tracks <- t.n_tracks + 1

let gauge t ~name ?(labels = []) ?(help = "") ?track probe =
  register t ~name ~labels ~help ~kind:Gauge (fun () -> (probe (), 1));
  match track with
  | Some (dev, counter) when Trace.on t.trace ->
    add_track t
      { tk_dev = dev; tk_name = Trace.name t.trace counter; tk_probe = probe }
  | _ -> ()

let ratio t ~name ?(labels = []) ?(help = "") probe =
  register t ~name ~labels ~help ~kind:Ratio probe

(* ----- sampling ------------------------------------------------------------ *)

let ensure_capacity s =
  if s.sr_len = Array.length s.sr_times then begin
    let n = 2 * Array.length s.sr_times in
    let grow a =
      let g = Array.make n 0 in
      Array.blit a 0 g 0 s.sr_len;
      g
    in
    s.sr_times <- grow s.sr_times;
    s.sr_num <- grow s.sr_num;
    s.sr_den <- grow s.sr_den
  end

let sample t ~time =
  if t.enabled then
    for i = 0 to t.n_series - 1 do
      let s = t.series.(i) in
      ensure_capacity s;
      let num, den = s.sr_probe () in
      let l = s.sr_len in
      s.sr_times.(l) <- time;
      s.sr_num.(l) <- num;
      s.sr_den.(l) <- den;
      s.sr_len <- l + 1
    done;
  for i = 0 to t.n_tracks - 1 do
    let k = t.tracks.(i) in
    Trace.counter t.trace ~time ~dev:k.tk_dev ~name:k.tk_name
      ~value:(k.tk_probe ())
  done

(* The shared [disabled] registry has neither series nor tracks, so it is
   never written here. *)
let sample_due t ~time =
  if (t.enabled || t.n_tracks > 0) && time >= t.next_due then begin
    t.next_due <- time + t.spec.sample_every;
    sample t ~time
  end

(* ----- introspection ------------------------------------------------------- *)

let iter_series t ~f =
  for i = 0 to t.n_series - 1 do
    f t.series.(i)
  done

let num_series t = t.n_series

let num_samples t =
  let n = ref 0 in
  iter_series t ~f:(fun s -> n := !n + s.sr_len);
  !n

(* ----- export -------------------------------------------------------------- *)

(* OpenMetrics metric names must match [a-zA-Z_:][a-zA-Z0-9_:]* — device
   identities go in labels, and anything else is mapped to '_'. *)
let sanitize_name n =
  let ok i c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || c = '_' || c = ':'
    || (i > 0 && c >= '0' && c <= '9')
  in
  let b = Bytes.of_string n in
  Bytes.iteri (fun i c -> if not (ok i c) then Bytes.set b i '_') b;
  if Bytes.length b = 0 then "_" else Bytes.to_string b

let escape_label_value v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let labels_openmetrics labels =
  match labels with
  | [] -> ""
  | _ ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf "%s=\"%s\"" (sanitize_name k)
               (escape_label_value v))
           labels)
    ^ "}"

let value_str s i =
  match s.sr_kind with
  | Counter | Gauge -> string_of_int s.sr_num.(i)
  | Ratio ->
    if s.sr_den.(i) = 0 then "0"
    else
      Printf.sprintf "%g"
        (float_of_int s.sr_num.(i) /. float_of_int s.sr_den.(i))

(* OpenMetrics text: one family per distinct metric name (TYPE/HELP once,
   in first-registration order), every sample with the simulated cycle in
   the timestamp field, '# EOF' terminator.  Ratio series export as
   gauges (OpenMetrics has no ratio type). *)
let export_openmetrics t buf =
  let emitted = Hashtbl.create 16 in
  let families = ref [] in
  iter_series t ~f:(fun s ->
      let fam = sanitize_name s.sr_name in
      if not (Hashtbl.mem emitted fam) then begin
        Hashtbl.add emitted fam ();
        families := fam :: !families
      end);
  List.iter
    (fun fam ->
      let om_type = ref "gauge" in
      let help = ref "" in
      iter_series t ~f:(fun s ->
          if sanitize_name s.sr_name = fam then begin
            if s.sr_kind = Counter then om_type := "counter";
            if !help = "" then help := s.sr_help
          end);
      (* An OpenMetrics counter family is named without the mandatory
         _total sample suffix. *)
      let base =
        if !om_type = "counter" && Filename.check_suffix fam "_total" then
          String.sub fam 0 (String.length fam - String.length "_total")
        else fam
      in
      Printf.bprintf buf "# TYPE %s %s\n" base !om_type;
      if !help <> "" then
        Printf.bprintf buf "# HELP %s %s\n" base (escape_label_value !help);
      iter_series t ~f:(fun s ->
          if sanitize_name s.sr_name = fam then
            let ls = labels_openmetrics s.sr_labels in
            for i = 0 to s.sr_len - 1 do
              Printf.bprintf buf "%s%s %s %d\n" fam ls (value_str s i)
                s.sr_times.(i)
            done))
    (List.rev !families);
  Buffer.add_string buf "# EOF\n"

(* CSV, long format: one row per sample.  Counters also carry the delta
   since their previous sample (the "counter-delta" view). *)
let export_csv t buf =
  Buffer.add_string buf "cycle,metric,labels,kind,value,delta\n";
  iter_series t ~f:(fun s ->
      let labels =
        String.concat ";"
          (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) s.sr_labels)
      in
      for i = 0 to s.sr_len - 1 do
        let delta =
          match s.sr_kind with
          | Counter ->
            string_of_int
              (s.sr_num.(i) - if i = 0 then 0 else s.sr_num.(i - 1))
          | Gauge | Ratio -> ""
        in
        Printf.bprintf buf "%d,%s,%s,%s,%s,%s\n" s.sr_times.(i) s.sr_name
          labels (kind_name s.sr_kind) (value_str s i) delta
      done)

(* Chrome trace-event counter tracks ("ph":"C"), for merging into the
   Perfetto export via [Trace.export_chrome ~extra].  Counters emit the
   per-interval delta — a rate track; gauges and ratios emit the sampled
   value. *)
let chrome_counter_events t ~emit =
  let b = Buffer.create 64 in
  iter_series t ~f:(fun s ->
      let name =
        match s.sr_labels with
        | [] -> s.sr_name
        | ls ->
          s.sr_name ^ "{"
          ^ String.concat ","
              (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) ls)
          ^ "}"
      in
      let jname =
        Buffer.clear b;
        Buffer.add_char b '"';
        String.iter
          (fun c ->
            match c with
            | '"' -> Buffer.add_string b "\\\""
            | '\\' -> Buffer.add_string b "\\\\"
            | c when Char.code c < 0x20 ->
              Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
            | c -> Buffer.add_char b c)
          name;
        Buffer.add_char b '"';
        Buffer.contents b
      in
      for i = 0 to s.sr_len - 1 do
        let v =
          match s.sr_kind with
          | Counter ->
            string_of_int
              (s.sr_num.(i) - if i = 0 then 0 else s.sr_num.(i - 1))
          | Gauge | Ratio -> value_str s i
        in
        emit
          (Printf.sprintf
             "{\"ph\":\"C\",\"name\":%s,\"pid\":0,\"ts\":%d,\"args\":{\"value\":%s}}"
             jname s.sr_times.(i) v)
      done)
