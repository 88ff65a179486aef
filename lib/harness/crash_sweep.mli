(** Harness driver for the crash sweep ({!Crashtest}): run sweeps over a
    set of applications, render the summary/detail tables the CLI and
    bench print, and assemble the run manifest. *)

type row = {
  cs_runner : Crashtest.runner;
  cs_sweep : Crashtest.sweep;
}

val run :
  ?config:Crashtest.config -> ?apps:string list -> unit -> row list
(** Sweep the named applications ([apps = []] means every runner —
    the registry minus Apex). Unknown names are warned about and
    skipped. *)

val to_string : row list -> string
(** The per-application summary table: point counts by outcome class,
    manifested ground-truth bugs and the control verdict for
    expect-clean applications. *)

val details_string : row -> string
(** Per-point table for one application (crash point, events, acked
    operations, at-risk bytes, outcome, attributed bugs). *)

val manifest_of_sweeps : row list -> Obs.Manifest.t
(** Manifest carrying the global registry's counters of every subsystem
    that ran ({!Obs.Manifest.active}) plus one summary label per swept
    application. *)
