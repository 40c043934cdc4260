(* Generic end-to-end timeout/retry table.

   Requesters register an outstanding transaction with a closure that
   re-issues the original message(s); if the transaction is still live when
   the timer fires, the messages are re-sent verbatim (same txn id) and the
   timer re-arms with exponential backoff plus jitter, up to a max-attempts
   cap.  The module is protocol-agnostic: it never sees messages, only
   opaque resend thunks, so it lives in the util layer with scheduling
   injected by the caller. *)

type config = {
  base_timeout : int;  (** cycles before the first re-send. *)
  backoff_factor : int;  (** timeout multiplier per attempt. *)
  max_timeout : int;  (** backoff ceiling, pre-jitter. *)
  jitter : int;  (** uniform random extra in [0, jitter]. *)
  max_attempts : int;  (** re-sends before declaring the txn dead. *)
}

let default =
  {
    base_timeout = 2_000;
    backoff_factor = 2;
    max_timeout = 16_000;
    jitter = 128;
    max_attempts = 20;
  }

exception Exhausted of string

type entry = {
  describe : string;
  mutable resend : (unit -> unit) list;
  mutable attempts : int;
}

type t = {
  cfg : config;
  schedule : delay:int -> (unit -> unit) -> unit;
  rng : Rng.t;
  stats : Stats.t;
  entries : (int, entry) Hashtbl.t;
}

let create cfg ~seed ~schedule ~stats =
  { cfg; schedule; rng = Rng.create ~seed; stats; entries = Hashtbl.create 32 }

let pending t = Hashtbl.length t.entries

let timeout_for t ~attempts =
  let rec scaled acc n =
    if n <= 0 || acc >= t.cfg.max_timeout then acc
    else scaled (acc * t.cfg.backoff_factor) (n - 1)
  in
  min t.cfg.max_timeout (scaled t.cfg.base_timeout attempts)
  + if t.cfg.jitter > 0 then Rng.int t.rng (t.cfg.jitter + 1) else 0

let rec arm_timer t ~txn =
  let e = Hashtbl.find t.entries txn in
  t.schedule ~delay:(timeout_for t ~attempts:e.attempts) (fun () -> fire t ~txn)

and fire t ~txn =
  match Hashtbl.find_opt t.entries txn with
  | None -> () (* completed in the meantime; timers are never cancelled. *)
  | Some e ->
    e.attempts <- e.attempts + 1;
    if e.attempts > t.cfg.max_attempts then
      raise
        (Exhausted
           (Printf.sprintf "txn %d gave up after %d attempts: %s" txn
              e.attempts e.describe))
    else begin
      Stats.incr t.stats "retry.resend";
      List.iter (fun f -> f ()) (List.rev e.resend);
      arm_timer t ~txn
    end

(* Register [resend] for [txn].  A second [arm] on a live txn (one logical
   operation issuing several messages under one id) appends to the resend
   list without restarting the timer. *)
let arm t ~txn ~describe ~resend =
  match Hashtbl.find_opt t.entries txn with
  | Some e -> e.resend <- resend :: e.resend
  | None ->
    Hashtbl.add t.entries txn { describe; resend = [ resend ]; attempts = 0 };
    arm_timer t ~txn

let complete t ~txn =
  match Hashtbl.find_opt t.entries txn with
  | None -> ()
  | Some e ->
    if e.attempts > 0 then Stats.incr t.stats "retry.recovered";
    Hashtbl.remove t.entries txn
