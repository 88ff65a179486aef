(** Run manifests: one machine-readable JSON record per run.

    Schema ["hawkset.run_manifest/1"]:
    {v
    { "schema":   "hawkset.run_manifest/1",
      "labels":   { "app": "fast-fair", "detector": "hawkset",
                    "seed": "42", ... },            // strings
      "counters": { "collector.events": 12034, ... } // deterministic
      "histograms": { "sched.runnable": {"le_1":..,"overflow":..,
                      "count":..,"sum":..,"max":..}, ... } // deterministic
      "stages":   [ {"name":"run/analyse/collect","count":1,
                     "seconds":0.0123}, ... ],       // real wall clock
      "gauges":   { "peak_live_mb": 18.2, ... } }    // real measurements
    v}

    Determinism guarantee: [counters] and [histograms] are functions of the
    (app, workload, seed, policy) tuple only — two runs with the same seed
    serialize them byte-identically. [stages] and [gauges] carry real
    measurements and are quarantined in their own fields. *)

val schema : string

type stage = { stage_name : string; stage_count : int; stage_seconds : float }

type t = {
  labels : (string * string) list;
  counters : (string * int) list;
  histograms : (string * (string * int) list) list;
  stages : stage list;
  gauges : (string * float) list;
}

val make :
  ?labels:(string * string) list ->
  ?counters:(string * int) list ->
  ?histograms:(string * (string * int) list) list ->
  ?stages:stage list ->
  ?gauges:(string * float) list ->
  unit ->
  t

val of_registry :
  ?labels:(string * string) list ->
  ?extra_gauges:(string * float) list ->
  Registry.t ->
  t
(** Snapshot a registry's counters, histograms and spans, with
    [extra_gauges] as the gauge section. Only the subsystems
    that ran are kept: a subsystem (a metric name up to its first ['.'])
    appears when one of its counters is non-zero or one of its
    histograms holds an observation, and then with all of its counters
    and histograms. *)

val label : t -> string -> string option
val counter : t -> string -> int option
val gauge : t -> string -> float option

val counters_json : t -> string
(** The deterministic half ([counters] + [histograms]) alone — the byte
    string tests compare across same-seed runs. *)

val to_json : t -> string
val save : string -> t -> unit
