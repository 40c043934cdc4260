(** The rest of the record beside Figures 2/3: the ablation and extension
    studies and the observed Table II, as data.  Each study is a list of
    {!Spandex_system.Sweep.job}s on [Params.bench] geometry; run them with
    {!Spandex_system.Report.simulate_jobs}, the same path the figures take.
    bench/main.exe prints them and test/figures.ml pins them. *)

type t = {
  title : string;
  note : string;  (** one or more lines saying what the cells compare. *)
  jobs : Spandex_system.Sweep.job list;
      (** each job's label is its printed cell label, unique across
          {!ablations}. *)
}

val ablations : unit -> t list
(** The six studies, in print order: DeNovo regions, hierarchy distance,
    ReqS options (1)/(2)/(3), LLC banks, the coalescing window and the
    adaptive write policy.  Builds their workloads, so call it once. *)

val pp_cells :
  Format.formatter -> (string * Spandex_system.Run.result) list -> unit
(** One line per cell: label, cycles and flits.  This is the block
    EXPERIMENTS.md quotes for each study. *)

val table2 : unit -> Spandex_system.Sweep.job list
(** One tiny single-device scenario per device protocol (a load, a store,
    an RMW and a release), labelled "GPU coherence", "DeNovo" and "MESI". *)

val pp_table2 :
  Format.formatter -> (string * Spandex_system.Run.result) list -> unit
(** One line per scenario: the request kinds its L1 put on the network. *)
