(** Observability plumbing shared by the CLI and the tests: measured
    runs with the global metric registry reset at the start, peak-heap
    sampling, and {!Obs.Manifest.t} assembly.

    Every front end that reports one run ([hawkset run] under each
    detector, [hawkset analyze] under both) builds its manifest with
    {!measured}, so the counters of a live and an offline analysis of the
    same trace come from the same place. Living in the harness (not
    [bin/]) means tests assert the exact artifact the CLI's
    [--stats-json] emits. *)

val measured :
  labels:(string * string) list -> (unit -> 'a) -> 'a * Obs.Manifest.t
(** [measured ~labels f] resets {!Obs.Registry.global}, runs [f] under the
    peak-heap sampler, and snapshots the registry into a manifest with
    the [peak_live_mb] and [final_live_mb] gauges. The registry is the
    process-wide aggregate: the manifest is exact for [f] only because
    nothing else runs between the reset and the snapshot. *)

val analyse :
  ?config:Hawkset.Pipeline.config ->
  Trace.Tracebuf.t ->
  Hawkset.Pipeline.result
(** {!Hawkset.Pipeline.run}, then [report.distinct_races] is bumped by
    the report's size: the analysis step of [run] and [analyze]. *)

val eraser : Trace.Tracebuf.t -> Hawkset.Report.t
(** {!Baselines.Eraser.analyse} under an [eraser.analyse] span (stage
    [analyse]), with the same [report.distinct_races] bump as
    {!analyse}: the analysis step of [run -d eraser] and
    [analyze --eraser]. *)

val run_spans :
  execute:(unit -> Machine.Sched.report) ->
  analyse:(Machine.Sched.report -> 'a) ->
  Machine.Sched.report * 'a
(** The span shape of [hawkset run] under every detector: [execute]
    under [run.execute], then [analyse] of its report, both inside a
    [run] span. Manifest stages [run], [run/execute] and whatever
    [analyse] opens beneath [run]. *)

type run = {
  sched_report : Machine.Sched.report;
  pipeline : Hawkset.Pipeline.result;
  manifest : Obs.Manifest.t;
      (** Its gauges carry the peak live heap across execute + analyse
          and the live heap after the run. *)
}

val instrumented_run :
  ?config:Hawkset.Pipeline.config ->
  entry:Pmapps.Registry.entry ->
  seed:int ->
  ops:int ->
  unit ->
  run
(** {!measured} over {!run_spans}: execute the application's workload
    and analyse the trace with {!analyse} (stages [run/execute],
    [run/pipeline/...]); the manifest is labelled with the app, detector, seed
    and ops. Counters in the manifest are byte-identical across calls
    with equal [(entry, seed, ops, config)]. *)

val base_labels :
  app:string -> detector:string -> seed:int -> ops:int ->
  (string * string) list

val render : Obs.Manifest.t -> string
(** The human [--stats] block: labels, the span {e tree} (spans indented
    under their slash-path ancestors, each with its percentage of the
    nearest recorded ancestor's seconds), deterministic counter table
    (histogram cells flattened), measured gauge table. *)
