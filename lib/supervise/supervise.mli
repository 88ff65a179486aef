(** Supervised batch execution: a declared job set run to completion.

    The paper's headline — one execution per workload suffices — makes
    the production shape of HawkSet a large batch of independent
    analyses (app × seed × schedule policy × pipeline config) rather
    than a single run. At that scale the failure modes change: one hung
    analysis, OOM, corrupt trace or SIGKILL must cost one job (or one
    attempt), never the campaign. This module is the supervision layer
    above {!Hawkset.Pipeline}:

    {ul
    {- {b Budgets}: each attempt runs under a wall-clock deadline and a
       live-heap budget ({!Obs.Budget}, the [Gc.alarm] machinery), with
       the deadline also threaded into the pipeline's cooperative
       stage deadlines.}
    {- {b Failure taxonomy}: every failed attempt is classified as
       {!failure} ([Timeout | Oom | Corrupt_trace | Pipeline_exn |
       Worker_lost]) by {!classify_exn}.}
    {- {b Retry}: deterministic exponential backoff with seeded jitter
       ({!backoff_delay_ms} is a pure function of (config, job,
       attempt)) and a bounded attempt count.}
    {- {b Circuit breaker}: after [breaker_threshold] consecutive jobs
       of the same application exhaust their attempts, the app's
       remaining jobs are quarantined without running.}
    {- {b Graceful degradation}: the batch always terminates with a
       merged report plus a degradation table — work is dropped job by
       job, never the campaign.}
    {- {b Durability}: an append-only FNV-checksummed journal
       ({!Trace.Journal}) records every attempt and embeds each
       completed job's {!Hawkset.Report.to_json} bytes, so a killed
       batch resumed with [resume:true] replays completed jobs verbatim
       and produces a merged report {e byte-identical} to an
       uninterrupted run.}} *)

(** The failure taxonomy. Every way an attempt can die maps onto one of
    these five classes; every class is retried, and the class is recorded
    in the job's failure history and the degradation table. *)
type failure = Timeout | Oom | Corrupt_trace | Pipeline_exn | Worker_lost

val failure_to_string : failure -> string
(** ["timeout" | "oom" | "corrupt-trace" | "pipeline-exn" |
    "worker-lost"]. *)

val failure_of_string : string -> (failure, string) result

val classify_exn : exn -> failure
(** [Obs.Budget.Exceeded `Wall] is a [Timeout], [`Heap] an [Oom];
    {!Trace.Trace_io.Parse_error} is a [Corrupt_trace];
    {!Hawkset.Domain_pool.Worker_lost} a [Worker_lost]; anything else a
    [Pipeline_exn]. *)

type job = {
  j_id : int;  (** Position in the batch's deterministic enumeration. *)
  j_app : string;
  j_seed : int;  (** Workload (and schedule) seed. *)
  j_policy : string;
      (** Scheduler policy: ["round-robin" | "random" | "delay" |
          "pct"]. *)
  j_ops : int;
}

val policy_of_string : string -> (Machine.Sched.policy, string) result

val jobs_of :
  apps:string list ->
  seeds:int list ->
  policies:string list ->
  ops:int ->
  (job list, string) result
(** The cross product (apps outermost, then seeds, then policies) with
    ids assigned in enumeration order — the batch's declared job set.
    [Error] on an unknown application or policy name. *)

(** An injected fault (for chaos testing and the CI kill/resume smoke):
    the first [f_times] attempts of job [f_job] raise the real exception
    of class [f_class] before any work runs, so classification, retry,
    backoff and journaling all exercise their production paths. *)
type fault = { f_job : int; f_class : failure; f_times : int }

val fault_of_string : string -> (fault, string) result
(** ["JOB:CLASS[:COUNT]"], e.g. ["2:timeout"] (fails once) or
    ["0:oom:99"] (fails every attempt). *)

type config = {
  attempts : int;  (** Max attempts per job (default 3). *)
  backoff_ms : int;
      (** Base backoff; attempt [k] waits [backoff_ms * 2^(k-1)] plus
          seeded jitter in [\[0, backoff_ms)]. [0] disables sleeping
          (tests, CI). *)
  backoff_seed : int;  (** Jitter seed (default 42). *)
  deadline_s : float option;  (** Per-attempt wall-clock budget. *)
  max_heap_mb : float option;  (** Per-attempt live-heap budget. *)
  breaker_threshold : int;
      (** Consecutive exhausted jobs of one app before quarantine
          (default 2). *)
  job_workers : int;
      (** Jobs in flight at once (default 1). With [> 1], per-app job
          chains run concurrently on the domain pool; the merged report
          is byte-identical to the [job_workers = 1] run (see DESIGN), so
          this knob trades only wall-clock time and is excluded from the
          batch {!fingerprint}. *)
  faults : fault list;
  stop_after : int option;
      (** Chaos hook: stop the batch loop after this many jobs reach a
          terminal state (the in-process analogue of a mid-batch kill;
          the CLI's [--kill-after] exits the process on top of it). *)
}

val default_config : config

(** A job's terminal state. *)
type status =
  | Done of {
      d_attempts : int;
      d_truncations : int;
          (** {!Hawkset.Pipeline.result.truncated} entries of the
              successful attempt (0 = complete analysis). *)
      d_failures : failure list;  (** Failures survived, attempt order. *)
      d_races_json : string;  (** {!Hawkset.Report.to_json} bytes. *)
    }
  | Gave_up of { g_attempts : int; g_failures : failure list }
      (** Attempts exhausted; the job's report is dropped, the batch
          continues. *)
  | Quarantined  (** Circuit breaker: never attempted. *)

val status_string : status -> string
(** ["ok" | "ok-retried" | "ok-truncated" | "failed" | "quarantined"]
    (truncated wins over retried). *)

type job_result = {
  jr_job : job;
  jr_status : status;
  jr_replayed : bool;  (** Restored from the journal, not executed. *)
}

type batch = {
  b_fingerprint : string;
      (** FNV hash of the declared job set + supervision knobs; a resume
          against a journal with a different fingerprint is refused. *)
  b_config : config;
  b_jobs : job list;
  b_results : job_result list;
      (** Declared job order; a prefix when [b_interrupted] (with
          [job_workers > 1] an interrupted batch keeps whichever jobs
          reached a terminal state, still in declared order). *)
  b_interrupted : bool;  (** [stop_after] fired before the last job. *)
}

exception Resume_mismatch of { expected : string; found : string option }
(** [resume:true] against a journal recorded for a different batch
    declaration (or with an unreadable header record). *)

val fingerprint : config -> job list -> string

val backoff_delay_ms : config -> job:int -> attempt:int -> int
(** Delay before retrying [attempt] (the attempt that just failed) of
    [job]: [backoff_ms * 2^(attempt-1)] plus jitter drawn from a PRNG
    seeded with (backoff_seed, job, attempt) — deterministic, so two
    runs of the same batch back off identically. [0] when
    [backoff_ms = 0]. *)

val run :
  ?journal:string ->
  ?resume:bool ->
  ?cache:Hawkset.Result_cache.t ->
  ?config:config ->
  job list ->
  batch
(** Execute the batch under supervision — one job at a time by default,
    up to [config.job_workers] per-app chains concurrently otherwise.
    With [journal] set, every attempt is recorded durably (sequential
    mode streams records as they happen; concurrent mode appends each
    job's records as one group at job completion, so completion order
    across jobs is nondeterministic while replay stays keyed by job id);
    with [resume:true] as well, jobs already terminal in the journal are
    replayed from their recorded bytes (partially-attempted jobs
    continue from their next attempt in sequential mode; concurrent mode
    re-runs them from attempt 1 — deterministic, so the merged report is
    unchanged), and the journal is extended in place. A damaged journal
    tail (mid-write kill) is salvaged: valid records are kept, the rest
    re-executed. With [cache] set, an attempt whose workload trace
    fingerprint (plus analysis-config fingerprint) is cached skips
    stages 2–3 and embeds the recorded report bytes — byte-identical,
    since the cached bytes came from an identical trace. Raises
    {!Resume_mismatch} when the journal belongs to a different
    declaration, [Invalid_argument] on an unknown app or policy in
    [jobs]. *)

val merged_json : batch -> string
(** The merged batch report (schema ["hawkset.batch_report/2"]): one
    entry per terminal job with its status, attempt count, failure
    history and verbatim race-report JSON, plus a summary block.
    Deterministic — and byte-identical between an uninterrupted run and
    a kill + resume of the same declaration, because replayed entries
    are the recorded bytes themselves. *)

val summary : batch -> (string * int) list
(** Degradation summary, in rendering order: jobs, ok, ok-clean,
    ok-retried, ok-truncated, failed, quarantined,
    attempts, retries, replayed. *)

val counters : batch -> (string * int) list
(** The [supervise.*] counters for this batch (also bumped into
    {!Obs.Registry.global} while it runs): jobs, attempts, retries,
    replayed, quarantined, gave_up, and one [supervise.failures.*] per
    taxonomy class. *)

val manifest : batch -> Obs.Manifest.t
(** Labels (apps, seeds, policies, attempts, job_workers, breaker),
    the {!counters}, and a [supervise.interrupted] gauge. *)
