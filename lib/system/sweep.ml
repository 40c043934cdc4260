(* Parallel sweep runner.

   Every [Run.simulate] call owns its engine, network, and stats, and the
   only process-wide simulator state (the transaction counter) is
   domain-local, so independent (config x workload x seed) simulations can
   run on separate domains.  Workers pull jobs from a shared atomic index
   and write results into per-job slots, so results come back in submission
   order and the output is bit-identical to a sequential run regardless of
   scheduling. *)

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

type 'b outcome = Value of 'b | Raised of exn * Printexc.raw_backtrace

(* Simulation allocates in a steady churn of short-lived records; a larger
   minor heap keeps that churn out of the major heap, and a raised
   space_overhead stops the (rare) major collections from compacting
   mid-sweep.  Each worker domain sets its own parameters — minor heaps
   are per-domain in OCaml 5 — and restores the caller's on exit so
   embedding programs are unaffected. *)
let tuned_minor_heap_words = 4 * 1024 * 1024
let tuned_space_overhead = 400

let with_tuned_gc f =
  let saved = Gc.get () in
  Gc.set
    {
      saved with
      Gc.minor_heap_size = tuned_minor_heap_words;
      space_overhead = tuned_space_overhead;
    };
  Fun.protect ~finally:(fun () -> Gc.set saved) f

(* [weights.(i)] is the expected relative cost of [items.(i)]; workers
   claim jobs heaviest-first so one long job started last cannot serialize
   the tail of the sweep.  Results still land in submission-order slots. *)
let claim_order n = function
  | None -> Array.init n (fun i -> i)
  | Some weights ->
    assert (Array.length weights = n);
    let order = Array.init n (fun i -> i) in
    Array.sort
      (fun a b ->
        match compare weights.(b) weights.(a) with
        | 0 -> compare a b
        | c -> c)
      order;
    order

let map ?jobs ?weights f items =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let input = Array.of_list items in
  let n = Array.length input in
  let jobs = max 1 (min jobs n) in
  let order = claim_order n weights in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let worker () =
    with_tuned_gc @@ fun () ->
    let rec loop () =
      let k = Atomic.fetch_and_add next 1 in
      if k < n then begin
        let i = order.(k) in
        results.(i) <-
          Some
            (try Value (f input.(i))
             with e -> Raised (e, Printexc.get_raw_backtrace ()));
        loop ()
      end
    in
    loop ()
  in
  (* The calling domain is one of the workers; [jobs <= 1] spawns none. *)
  let spawned = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join spawned;
  (* Re-raise the first failure in submission order, as a sequential
     List.map would have surfaced it (later jobs may have run anyway). *)
  Array.to_list results
  |> List.map (function
       | Some (Value v) -> v
       | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
       | None -> assert false)

(* ----- simulation jobs ------------------------------------------------------ *)

type job = {
  label : string;
  params : Params.t;
  config : Config.t;
  workload : Workload.t;
}

(* Expected cost proxy: the op count of the workload program.  Cycles per
   op vary by config, but across a sweep the op count dominates — it is
   exact enough to keep the longest cells off the tail. *)
let job_weight j = float_of_int (Workload.total_ops j.workload)

let simulate_all ?jobs js =
  let weights = Array.of_list (List.map job_weight js) in
  map ?jobs ~weights
    (fun j -> Run.simulate ~params:j.params ~config:j.config j.workload)
    js
