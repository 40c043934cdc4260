module Hist = Spandex_util.Hist
module Msg = Spandex_proto.Msg

type spec = { capacity : int; sample_every : int }

let default_spec = { capacity = 1 lsl 16; sample_every = 64 }

(* Event kinds in the ring.  Events are stored struct-of-arrays with six
   unboxed int fields; the meaning of [ids]/[a]/[b]/[c] depends on the
   kind:

     kind         ids        a          b         c
     0 span begin txn        cls        line      -
     1 span end   txn        cls        latency   -
     2 instant    name id    txn        arg       -
     3 counter    name id    value      -         -
     4 msg send   txn        kind idx   line      dst          *)

let ek_span_begin = 0
let ek_span_end = 1
let ek_instant = 2
let ek_counter = 3
let ek_msg = 4

type t = {
  enabled : bool;
  sample_every : int;
  mask : int;  (* capacity - 1; capacity is a power of two. *)
  times : int array;
  eks : int array;
  devs : int array;
  ids : int array;
  a : int array;
  b : int array;
  c : int array;
  mutable total : int;
  (* Interned instant/counter names, [name id -> string]. *)
  name_index : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable n_names : int;
  (* txn -> (begin time lsl 3) lor cls, for spans not yet ended.  Kept
     outside the ring so latency histograms survive ring wraparound. *)
  open_tbl : (int, int) Hashtbl.t;
  hists : Hist.t array;  (* per request class, by req_kind_index. *)
}

let num_classes = List.length Msg.all_req_kinds

let cls_names =
  let a = Array.make num_classes "" in
  List.iter
    (fun k -> a.(Msg.req_kind_index k) <- Msg.req_kind_name k)
    Msg.all_req_kinds;
  a

let cls_name i =
  if i >= 0 && i < num_classes then cls_names.(i) else Printf.sprintf "cls%d" i

let kind_names =
  let a = Array.make Msg.num_kinds "" in
  List.iter (fun k -> a.(Msg.kind_index k) <- Msg.kind_name k) Msg.all_kinds;
  a

let kind_name i =
  if i >= 0 && i < Array.length kind_names then kind_names.(i)
  else Printf.sprintf "kind%d" i

let disabled =
  {
    enabled = false;
    sample_every = 0;
    mask = -1;
    times = [||];
    eks = [||];
    devs = [||];
    ids = [||];
    a = [||];
    b = [||];
    c = [||];
    total = 0;
    name_index = Hashtbl.create 1;
    names = [||];
    n_names = 0;
    open_tbl = Hashtbl.create 1;
    hists = [||];
  }

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (c * 2)

let create spec =
  if spec.capacity <= 0 then invalid_arg "Trace.create: capacity";
  let cap = pow2_at_least spec.capacity 2 in
  {
    enabled = true;
    sample_every = max 1 spec.sample_every;
    mask = cap - 1;
    times = Array.make cap 0;
    eks = Array.make cap 0;
    devs = Array.make cap 0;
    ids = Array.make cap 0;
    a = Array.make cap 0;
    b = Array.make cap 0;
    c = Array.make cap 0;
    total = 0;
    name_index = Hashtbl.create 32;
    names = Array.make 16 "";
    n_names = 0;
    open_tbl = Hashtbl.create 256;
    hists = Array.init num_classes (fun _ -> Hist.create ());
  }

let on t = t.enabled
let sample_every t = t.sample_every

let name t s =
  if not t.enabled then 0
  else
    match Hashtbl.find_opt t.name_index s with
    | Some i -> i
    | None ->
      if t.n_names = Array.length t.names then begin
        let grown = Array.make (2 * t.n_names) "" in
        Array.blit t.names 0 grown 0 t.n_names;
        t.names <- grown
      end;
      let i = t.n_names in
      t.names.(i) <- s;
      t.n_names <- i + 1;
      Hashtbl.add t.name_index s i;
      i

let push t ~time ~ek ~dev ~id ~a ~b ~c =
  let s = t.total land t.mask in
  t.times.(s) <- time;
  t.eks.(s) <- ek;
  t.devs.(s) <- dev;
  t.ids.(s) <- id;
  t.a.(s) <- a;
  t.b.(s) <- b;
  t.c.(s) <- c;
  t.total <- t.total + 1

let span_begin t ~time ~dev ~txn ~cls ~line =
  if t.enabled then begin
    Hashtbl.replace t.open_tbl txn ((time lsl 3) lor (cls land 7));
    push t ~time ~ek:ek_span_begin ~dev ~id:txn ~a:cls ~b:line ~c:0
  end

let span_end t ~time ~dev ~txn =
  if t.enabled then
    match Hashtbl.find_opt t.open_tbl txn with
    | None -> ()
    | Some packed ->
      Hashtbl.remove t.open_tbl txn;
      let cls = packed land 7 in
      let latency = time - (packed lsr 3) in
      Hist.record t.hists.(cls) latency;
      push t ~time ~ek:ek_span_end ~dev ~id:txn ~a:cls ~b:latency ~c:0

let instant t ~time ~dev ~name ~txn ~arg =
  if t.enabled then push t ~time ~ek:ek_instant ~dev ~id:name ~a:txn ~b:arg ~c:0

let counter t ~time ~dev ~name ~value =
  if t.enabled then push t ~time ~ek:ek_counter ~dev ~id:name ~a:value ~b:0 ~c:0

let msg_send t ~time ~src ~dst ~txn ~kind ~line =
  if t.enabled then
    push t ~time ~ek:ek_msg ~dev:src ~id:txn ~a:kind ~b:line ~c:dst

let total t = t.total
let recorded t = min t.total (t.mask + 1)
let dropped t = t.total - recorded t
let open_spans t = Hashtbl.length t.open_tbl

let latency t ~cls =
  if not t.enabled then invalid_arg "Trace.latency: disabled sink";
  t.hists.(cls)

let latency_summaries t =
  if not t.enabled then []
  else
    Array.to_list t.hists
    |> List.mapi (fun i h -> (cls_name i, h))
    |> List.filter (fun (_, h) -> not (Hist.is_empty h))
    |> List.map (fun (n, h) -> (n, Hist.summary h))

type event =
  | Span_begin of { time : int; dev : int; txn : int; cls : int; line : int }
  | Span_end of { time : int; dev : int; txn : int; cls : int; latency : int }
  | Instant of { time : int; dev : int; name : string; txn : int; arg : int }
  | Counter of { time : int; dev : int; name : string; value : int }
  | Msg_send of {
      time : int;
      src : int;
      dst : int;
      txn : int;
      kind : int;
      line : int;
    }

let iter t ~f =
  let first = t.total - recorded t in
  for i = first to t.total - 1 do
    let s = i land t.mask in
    let time = t.times.(s)
    and dev = t.devs.(s)
    and id = t.ids.(s)
    and a = t.a.(s)
    and b = t.b.(s)
    and c = t.c.(s) in
    let ek = t.eks.(s) in
    if ek = ek_span_begin then
      f (Span_begin { time; dev; txn = id; cls = a; line = b })
    else if ek = ek_span_end then
      f (Span_end { time; dev; txn = id; cls = a; latency = b })
    else if ek = ek_instant then
      f (Instant { time; dev; name = t.names.(id); txn = a; arg = b })
    else if ek = ek_counter then
      f (Counter { time; dev; name = t.names.(id); value = a })
    else f (Msg_send { time; src = dev; dst = c; txn = id; kind = a; line = b })
  done

(* ----- export ---------------------------------------------------------------- *)

let add_json_quoted buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | ch when Char.code ch < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.add_char buf '"'

(* Devices that appear as a track in the chrome export, in id order. *)
let devices_used t =
  let seen = Hashtbl.create 16 in
  iter t ~f:(fun ev ->
      let mark d = if not (Hashtbl.mem seen d) then Hashtbl.add seen d () in
      match ev with
      | Span_begin { dev; _ }
      | Span_end { dev; _ }
      | Instant { dev; _ }
      | Counter { dev; _ } ->
        mark dev
      | Msg_send { src; dst; _ } ->
        mark src;
        mark dst);
  Hashtbl.fold (fun d () acc -> d :: acc) seen [] |> List.sort compare

let export_chrome ?extra t ~device_name buf =
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let first = ref true in
  let emit line =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf "\n";
    Buffer.add_string buf line
  in
  List.iter
    (fun d ->
      emit
        (Printf.sprintf
           "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":%s}}"
           d
           (let b = Buffer.create 16 in
            add_json_quoted b (device_name d);
            Buffer.contents b)))
    (devices_used t);
  let js s =
    let b = Buffer.create 16 in
    add_json_quoted b s;
    Buffer.contents b
  in
  iter t ~f:(fun ev ->
      match ev with
      | Span_begin { time; dev; txn; cls; line } ->
        emit
          (Printf.sprintf
             "{\"ph\":\"b\",\"cat\":%s,\"name\":%s,\"id\":\"0x%x\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"args\":{\"txn\":%d,\"line\":%d}}"
             (js (cls_name cls)) (js (cls_name cls)) txn dev time txn line)
      | Span_end { time; dev; txn; cls; latency } ->
        emit
          (Printf.sprintf
             "{\"ph\":\"e\",\"cat\":%s,\"name\":%s,\"id\":\"0x%x\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"args\":{\"latency\":%d}}"
             (js (cls_name cls)) (js (cls_name cls)) txn dev time latency)
      | Instant { time; dev; name; txn; arg } ->
        emit
          (Printf.sprintf
             "{\"ph\":\"i\",\"name\":%s,\"pid\":0,\"tid\":%d,\"ts\":%d,\"s\":\"t\",\"args\":{\"txn\":%d,\"arg\":%d}}"
             (js name) dev time txn arg)
      | Counter { time; dev = _; name; value } ->
        emit
          (Printf.sprintf
             "{\"ph\":\"C\",\"name\":%s,\"pid\":0,\"ts\":%d,\"args\":{\"value\":%d}}"
             (js name) time value)
      | Msg_send { time; src; dst; txn; kind; line } ->
        emit
          (Printf.sprintf
             "{\"ph\":\"i\",\"name\":%s,\"pid\":0,\"tid\":%d,\"ts\":%d,\"s\":\"t\",\"args\":{\"txn\":%d,\"line\":%d,\"to\":%s}}"
             (js (kind_name kind)) src time txn line (js (device_name dst))));
  (* Extra pre-rendered trace-event objects (e.g. the metrics registry's
     counter tracks) join the same JSON array. *)
  (match extra with Some f -> f ~emit | None -> ());
  Buffer.add_string buf "\n]}\n"

let export_jsonl t ~device_name buf =
  let js s =
    let b = Buffer.create 16 in
    add_json_quoted b s;
    Buffer.contents b
  in
  Printf.bprintf buf
    "{\"schema\":\"spandex-trace/1\",\"total\":%d,\"dropped\":%d,\"open_spans\":%d}\n"
    t.total (dropped t) (open_spans t);
  iter t ~f:(fun ev ->
      (match ev with
      | Span_begin { time; dev; txn; cls; line } ->
        Printf.bprintf buf
          "{\"t\":%d,\"ev\":\"b\",\"dev\":%s,\"txn\":%d,\"cls\":%s,\"line\":%d}"
          time
          (js (device_name dev))
          txn
          (js (cls_name cls))
          line
      | Span_end { time; dev; txn; cls; latency } ->
        Printf.bprintf buf
          "{\"t\":%d,\"ev\":\"e\",\"dev\":%s,\"txn\":%d,\"cls\":%s,\"lat\":%d}"
          time
          (js (device_name dev))
          txn
          (js (cls_name cls))
          latency
      | Instant { time; dev; name; txn; arg } ->
        Printf.bprintf buf
          "{\"t\":%d,\"ev\":\"i\",\"dev\":%s,\"name\":%s,\"txn\":%d,\"arg\":%d}"
          time
          (js (device_name dev))
          (js name) txn arg
      | Counter { time; dev; name; value } ->
        Printf.bprintf buf
          "{\"t\":%d,\"ev\":\"c\",\"dev\":%s,\"name\":%s,\"value\":%d}" time
          (js (device_name dev))
          (js name) value
      | Msg_send { time; src; dst; txn; kind; line } ->
        Printf.bprintf buf
          "{\"t\":%d,\"ev\":\"m\",\"src\":%s,\"dst\":%s,\"txn\":%d,\"kind\":%s,\"line\":%d}"
          time
          (js (device_name src))
          (js (device_name dst))
          txn
          (js (kind_name kind))
          line);
      Buffer.add_char buf '\n')
