(** Observability plumbing shared by the CLI, the bench emitter and the
    tests: instrumented runs with the global metric registry reset at the
    start, peak-heap sampling, and {!Obs.Manifest.t} assembly.

    Living in the harness (not [bin/]) means tests assert the exact
    artifact the CLI's [--stats-json] emits. *)

type run = {
  sched_report : Machine.Sched.report;
  pipeline : Hawkset.Pipeline.result;
  peak_mb : float;  (** Peak live heap across execute + analyse. *)
  final_live_mb : float;
  manifest : Obs.Manifest.t;
}

val instrumented_run :
  ?config:Hawkset.Pipeline.config ->
  entry:Pmapps.Registry.entry ->
  seed:int ->
  ops:int ->
  unit ->
  run
(** Reset {!Obs.Registry.global}, execute the application's workload under
    spans ([run/execute], [run/pipeline/...]), analyse the trace, and
    snapshot everything into a manifest (labelled with the app, detector,
    seed and ops). Counters in the manifest are byte-identical across
    calls with equal [(entry, seed, ops, config)]. *)

val base_labels :
  app:string -> detector:string -> seed:int -> ops:int ->
  (string * string) list

val manifest_of_pipeline :
  ?labels:(string * string) list ->
  ?extra_gauges:(string * float) list ->
  Hawkset.Pipeline.result ->
  Obs.Manifest.t
(** Manifest for an offline [analyze] run: built from the pipeline
    result's own counter delta and stage timings (no scheduler/cache
    counters exist for a pre-recorded trace). *)

val render : Obs.Manifest.t -> string
(** The human [--stats] block: labels, the span {e tree} (spans indented
    under their slash-path ancestors, each with its percentage of the
    nearest recorded ancestor's seconds), deterministic counter table
    (histogram cells flattened), measured gauge table. *)
