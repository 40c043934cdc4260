type action = Deliver of int | Drop of int | Dup of int

let seq_of = function Deliver s | Drop s | Dup s -> s

let action_name = function
  | Deliver _ -> "deliver"
  | Drop _ -> "drop"
  | Dup _ -> "dup"

let action_of_name name seq =
  match name with
  | "deliver" -> Deliver seq
  | "drop" -> Drop seq
  | "dup" -> Dup seq
  | _ -> failwith (Printf.sprintf "counterexample: unknown action %S" name)


type header = {
  h_case : string;
  h_config : string;
  h_cpus : int;
  h_gpus : int;
  h_banks : int;  (** LLC bank count the case was explored with. *)
  h_faults : bool;
  h_seed_bug : string option;
  h_violation : string;
}

(* ----- hand-rolled flat JSON ----------------------------------------------------- *)

(* The emitter only ever produces flat objects with string / int / bool /
   null values, and the strings it writes (case names, config names,
   message summaries) contain no quotes or backslashes; [escape] guards
   the invariant anyway. *)
let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' -> Buffer.add_char b '_'
      | '\n' | '\r' | '\t' -> Buffer.add_char b ' '
      | c when Char.code c < 0x20 -> Buffer.add_char b ' '
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let find_field json key =
  let pat = Printf.sprintf "\"%s\":" key in
  let plen = String.length pat in
  let n = String.length json in
  let rec scan i =
    if i + plen > n then None
    else if String.sub json i plen = pat then Some (i + plen)
    else scan (i + 1)
  in
  scan 0

let field_string json key =
  match find_field json key with
  | None -> None
  | Some i ->
    if i < String.length json && json.[i] = '"' then begin
      let j = String.index_from json (i + 1) '"' in
      Some (String.sub json (i + 1) (j - i - 1))
    end
    else None (* null or non-string *)

let field_raw json key =
  match find_field json key with
  | None -> None
  | Some i ->
    let n = String.length json in
    let j = ref i in
    while
      !j < n && (match json.[!j] with ',' | '}' -> false | _ -> true)
    do
      incr j
    done;
    Some (String.trim (String.sub json i (!j - i)))

let field_int json key =
  match field_raw json key with
  | Some raw -> (
    match int_of_string_opt raw with
    | Some v -> Some v
    | None -> failwith (Printf.sprintf "counterexample: bad int %S" raw))
  | None -> None

let field_bool json key =
  match field_raw json key with
  | Some "true" -> Some true
  | Some "false" -> Some false
  | _ -> None

let require what = function
  | Some v -> v
  | None -> failwith (Printf.sprintf "counterexample: missing %s" what)

(* ----- encode -------------------------------------------------------------------- *)

let header_line h =
  Printf.sprintf
    "{\"spandex_check\":1,\"case\":\"%s\",\"config\":\"%s\",\"cpus\":%d,\"gpus\":%d,\"banks\":%d,\"faults\":%b,\"seed_bug\":%s,\"violation\":\"%s\"}"
    (escape h.h_case) (escape h.h_config) h.h_cpus h.h_gpus h.h_banks
    h.h_faults
    (match h.h_seed_bug with
    | None -> "null"
    | Some b -> Printf.sprintf "\"%s\"" (escape b))
    (escape h.h_violation)

let step_line i (act, descr) =
  Printf.sprintf "{\"step\":%d,\"action\":\"%s\",\"seq\":%d,\"msg\":\"%s\"}" i
    (action_name act) (seq_of act) (escape descr)

let write ~path header steps =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (header_line header);
      output_char oc '\n';
      List.iteri
        (fun i step ->
          output_string oc (step_line i step);
          output_char oc '\n')
        steps)

(* ----- decode -------------------------------------------------------------------- *)

let read ~path =
  let ic = open_in path in
  let lines = ref [] in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      (try
         while true do
           let l = String.trim (input_line ic) in
           if l <> "" then lines := l :: !lines
         done
       with End_of_file -> ());
      match List.rev !lines with
      | [] -> failwith "counterexample: empty file"
      | hd :: steps ->
        if field_int hd "spandex_check" <> Some 1 then
          failwith "counterexample: not a spandex_check v1 file";
        let header =
          {
            h_case = require "case" (field_string hd "case");
            h_config = require "config" (field_string hd "config");
            h_cpus = require "cpus" (field_int hd "cpus");
            h_gpus = require "gpus" (field_int hd "gpus");
            (* Absent in pre-banking counterexample files: they explored a
               single-bank LLC. *)
            h_banks = Option.value ~default:1 (field_int hd "banks");
            h_faults = require "faults" (field_bool hd "faults");
            h_seed_bug = field_string hd "seed_bug";
            h_violation =
              Option.value ~default:"" (field_string hd "violation");
          }
        in
        let actions =
          List.map
            (fun l ->
              action_of_name
                (require "action" (field_string l "action"))
                (require "seq" (field_int l "seq")))
            steps
        in
        (header, actions))
