(** Analysis result cache, keyed on a run's source.

    A complete run's output is a pure function of its inputs, so sweeps
    and batches that revisit the same inputs — fingerprint-twin
    schedules in exploration, identical crash prefixes in a crash sweep,
    repeated batch declarations — can skip the work. The cache holds the
    canonical outputs of one complete run and nothing else: the verbatim
    {!Report.to_json} bytes (what batch merging embeds, so a hit keeps
    merged reports byte-identical) and the {!Report.canonical} pair set
    (what the stability oracle and ground-truth attribution compare).

    Every entry is keyed on its {!source} plus {!config_fingerprint},
    and both sources share one index and one row type:
    - [Trace tr] is keyed ["t:"] ^ [Trace.Trace_io.fingerprint tr]:
      for callers that hold an executed trace anyway ([check],
      explore, crash sweeps).
    - [Job {inputs; execute}] is keyed ["j:"] ^ the FNV of [inputs], a
      canonical string of everything the trace is a function of (for a
      batch job: app, clamped ops, seed, scheduler seed and policy with
      its parameters). A hit neither executes nor fingerprints;
      [execute] runs only on a miss. The key is sound because
      execution is deterministic in those inputs (the same-seed
      determinism tests enforce it).

    {!run_cached} is the one call every front end uses. It stores only
    {e complete} results: a truncated report reflects the run's budgets,
    not its inputs. Correspondingly the stage deadlines are excluded from
    {!config_fingerprint} (deadlines only shape truncated runs), and so
    is [jobs], which has no effect. One caveat
    follows: a hit always substitutes the complete result, so a run
    whose deadlines {e would} have truncated reports clean on a warm
    cache (documented in README "Performance").

    {!save} writes schema [hawkset.result_cache/3], whose header records
    a build identity (a digest of the running executable). {!load}
    treats a file from another schema or another build as empty, so a
    rebuild that changes the analysis never serves stale entries.

    All operations are mutex-protected — sweeps consult the cache from
    worker domains. Hits/misses/stored bytes are mirrored into
    {!Obs.Registry.global} ([cache.hits]/[cache.misses]/[cache.bytes])
    with [cache.hit]/[cache.miss]/[cache.store] timeline instants;
    beware that under job-level concurrency the global counts are
    schedule-dependent (two workers can race to analyse the same new
    key), which is why they live in manifests and gauges, never in
    byte-compared counter lists. *)

type entry = {
  e_races_json : string;  (** Verbatim {!Report.to_json} bytes. *)
  e_canonical : (string * string) list;  (** {!Report.canonical}. *)
}

type t

val create : unit -> t

type source =
  | Trace of Trace.Tracebuf.t  (** An executed trace. *)
  | Job of { inputs : string; execute : unit -> Trace.Tracebuf.t }
      (** A run not yet executed: [inputs] canonically names everything
          [execute]'s trace is a function of. *)

val config_fingerprint : Pipeline.config -> string
(** FNV of the semantic analysis knobs (irh, effective lockset,
    timestamps, vector clocks, eADR, event budget) — [jobs] and
    deadlines excluded, see above. 16 hex digits. *)

val source_key : source -> string
(** ["t:"] ^ the trace fingerprint, or ["j:"] ^ the FNV of [inputs] as
    16 hex digits. Never runs [execute]. *)

val run_cached :
  ?cache:t ->
  ?guard:((unit -> entry * int) -> entry * int) ->
  config:Pipeline.config ->
  source ->
  entry * int
(** [run_cached ?cache ?guard ~config source] is the entry for [source]
    under [config] and the run's truncation count. On a hit it is the
    stored entry and [0], with no execution and nothing under [guard].
    On a miss (or without a cache) it runs, inside [guard] (default:
    none — for example a budget guard), [execute] for a [Job] and then
    {!Pipeline.run}[ ~config]; the entry is stored under
    [(source_key source, config_fingerprint config)] only when the run
    was complete. Safe to call from a {!Domain_pool} task: the pipeline
    never uses the pool. *)

val find : t -> key:string -> config_fp:string -> entry option
(** One locked probe of a {!source_key}; bumps hit/miss accounting
    (instance and global). *)

val add : t -> key:string -> config_fp:string -> entry -> unit
(** Insert unless present (entries for one key are deterministic, so
    first wins). Only complete (untruncated) results may be added. *)

val length : t -> int

val stats : t -> (string * int) list
(** [cache.bytes]/[cache.entries]/[cache.hits]/[cache.misses], sorted. *)

val save : t -> string -> unit
(** Persist every entry, in insertion order, as a {!Trace.Journal}
    ([hawkset.result_cache/3]: a header carrying the build identity,
    then one checksummed record per entry whose fields are the source
    key and config fingerprint and whose payload holds the races JSON
    and the canonical pairs). *)

val load : string -> t
(** Load a journal written by {!save}. Tolerant: a missing file, one
    under another schema (such as [hawkset.result_cache/2]) or one
    written by another build is an empty cache; a damaged tail or
    malformed entry costs those entries only. *)
