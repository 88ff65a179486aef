(** Fingerprint-keyed analysis result cache.

    Stage 2+3 output is a pure function of (trace bytes, analysis
    feature flags), so sweeps that revisit a trace — fingerprint-twin
    schedules in exploration, identical crash prefixes in a crash sweep,
    repeated batch declarations — can skip the analysis entirely. The
    cache maps [(Trace.Trace_io.fingerprint, config_fingerprint)] to the
    canonical outputs of one complete run, and holds nothing else: the
    verbatim {!Report.to_json} bytes (what batch merging embeds, so a
    hit keeps merged reports byte-identical) and the {!Report.canonical}
    pair set (what the stability oracle and ground-truth attribution
    compare).

    {!run_cached} is the one call every front end uses. It stores only
    {e complete} results: a truncated report reflects the run's budgets,
    not the trace. Correspondingly the stage deadlines are excluded from
    {!config_fingerprint} (deadlines only shape truncated runs), and so
    is [jobs], which has no effect. One caveat
    follows: a hit always substitutes the complete result, so a run
    whose deadlines {e would} have truncated reports clean on a warm
    cache (documented in README "Performance").

    All operations are mutex-protected — sweeps consult the cache from
    worker domains. Hits/misses/stored bytes are mirrored into
    {!Obs.Registry.global} ([cache.hits]/[cache.misses]/[cache.bytes])
    with [cache.hit]/[cache.miss]/[cache.store] timeline instants;
    beware that under job-level concurrency the global counts are
    schedule-dependent (two workers can race to analyse the same new
    fingerprint), which is why they live in manifests and gauges, never
    in byte-compared counter lists. *)

type entry = {
  e_races_json : string;  (** Verbatim {!Report.to_json} bytes. *)
  e_canonical : (string * string) list;  (** {!Report.canonical}. *)
}

type t

val create : unit -> t

val config_fingerprint : Pipeline.config -> string
(** FNV of the semantic analysis knobs (irh, effective lockset,
    timestamps, vector clocks, eADR, event budget) — [jobs] and
    deadlines excluded, see above. 16 hex digits. *)

val run_cached :
  ?cache:t -> config:Pipeline.config -> Trace.Tracebuf.t -> entry * int
(** [run_cached ?cache ~config trace] is the entry for [trace] under
    [config] and the run's truncation count. On a hit it is the stored
    entry and [0]. On a miss (or without a cache) it runs
    {!Pipeline.run}[ ~config] and builds the entry; the entry is stored,
    keyed on [config]'s own fingerprint, only when the run was complete.
    Safe to call from a {!Domain_pool} task: the pipeline never uses the
    pool. *)

val find : t -> trace_fp:string -> config_fp:string -> entry option
(** One locked probe; bumps hit/miss accounting (instance and global). *)

val add : t -> trace_fp:string -> config_fp:string -> entry -> unit
(** Insert unless present (entries for one key are deterministic, so
    first wins). Only complete (untruncated) results may be added. *)

val length : t -> int

val stats : t -> (string * int) list
(** [cache.bytes]/[cache.entries]/[cache.hits]/[cache.misses], sorted. *)

val save : t -> string -> unit
(** Persist every entry, in insertion order, as a {!Trace.Journal}
    ([hawkset.result_cache/2]: one checksummed record per entry whose
    payload holds the races JSON and the canonical pairs). *)

val load : string -> t
(** Load a journal written by {!save}. Tolerant: a missing file or one
    under another schema (such as [hawkset.result_cache/1]) is an empty
    cache; a damaged tail or malformed entry costs those entries only. *)
