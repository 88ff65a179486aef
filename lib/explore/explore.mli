(** Systematic schedule exploration: the interleaving-stability oracle.

    HawkSet's central claim is that lockset-based PM race detection is
    interleaving-insensitive: one execution per workload suffices,
    because the analysis reports a racing pair from {e any} trace in
    which the pair's instructions execute — where an observation-based
    tool like PMRace must get lucky with the schedule (PAPER.md §3,
    Table 3). This module tests that claim across many schedules: it
    fixes an application and a workload seed, sweeps scheduler policies
    (seed sweeps of every policy, including the PCT random-priority
    mode) and runs the full collect+analyse pipeline once per schedule,
    with the machine's [observe] mode recording the PMRace signal — the
    loads that {e actually} read another thread's
    visible-but-not-durable data in that interleaving.

    The oracle checks, per schedule:
    {ul
    {- {b Dominance}: every {e lock-free} directly-observed
       inconsistency ([obs_racy]) is in the schedule's canonicalized
       HawkSet report ({!Hawkset.Report.canonical}). An interleaving
       lucky enough for observation-based detection never tells
       HawkSet anything new — the analysis of that same trace already
       reported the pair. This is the per-interleaving form of "one
       execution suffices": a schedule where the lockset analysis
       missed an observed race would mean HawkSet's verdict depends on
       scheduling luck. Two observation classes are excluded
       ({!Machine.Sched.observation}[.obs_racy = false]): pairs where
       the storing and loading threads shared an instrumented lock
       (the common lock orders them under Definition 1), and reads
       performed by a successful CAS (the RMW closes the store's
       window itself, with a vector clock equal to the load's, so
       Algorithm 1's clock comparison cannot place the read inside
       the window). In both the lockset analysis correctly stays
       silent even though observation-based detection fires — such
       observations still count in coverage metrics and the per-bug
       table.}
    {- {b Determinism}: schedules with identical trace fingerprints
       ({!Trace.Trace_io.fingerprint}) must produce identical canonical
       reports — the analysis adds no nondeterminism of its own.}
    {- {b No errors}: a schedule that raises (deadlock, application
       failure) is a violation.}}

    Raw report sets are {e not} required to be identical across
    schedules: dynamic coverage legitimately varies with the
    interleaving (a different schedule splits different tree nodes,
    takes different CAS retry paths), so a racing pair may simply not
    execute under some schedules. That variation is reported as
    coverage metrics ([x_distinct_traces], [x_report_sets],
    [x_racing_pairs]) and as the per-bug hit-rate table ([x_bug_hits])
    whose PMRace column reproduces the Table 3 "missed under most
    interleavings" shape.

    Schedules are explored in parallel on the persistent {!Domain_pool}:
    each schedule is a pure function of its index, so results are
    deterministic and independent of [jobs]. Each schedule analyses its
    trace through {!Hawkset.Result_cache.run_cached} under
    {!Hawkset.Pipeline.default}, on the domain that ran the schedule. *)

(** Which scheduler policies the sweep draws from. [All] (the default)
    spends schedule 0 on the deterministic round-robin schedule and
    cycles the rest through random / PCT / delay-injection. *)
type policy_kind = Random | Round_robin | Delay | Pct | All

val policy_kind_of_string : string -> (policy_kind, string) result
val policy_kind_to_string : policy_kind -> string

type config = {
  schedules : int;  (** Schedules to explore (default 64). *)
  policy : policy_kind;  (** Policy family (default [All]). *)
  depth : int;  (** PCT preemption depth (default 3). *)
  jobs : int;
      (** Domains exploring schedules at once (default 1). [run] raises
          [Invalid_argument] when both [jobs] and [schedules] exceed
          {!Hawkset.Domain_pool.max_slots}. *)
  seed : int;  (** Workload seed, fixed across schedules (default 42). *)
  ops : int;  (** Main-phase operations per schedule (default 400). *)
  dump_dir : string option;
      (** Where divergent trace pairs are dumped as golden fixtures
          (default [None]: no dumps). *)
  cache : Hawkset.Result_cache.t option;
      (** Result cache consulted per schedule (default [None]): a trace
          whose fingerprint is already cached skips stage 2+3 entirely —
          sound because the determinism half of the oracle is exactly
          the purity the cache assumes, and every cached entry the sweep
          produces was verified against that oracle when first computed.
          Results are unchanged; only wall-clock time (and the
          [cache.*] gauges in {!manifest}) move. *)
}

val default_config : config

(** One explored schedule. Everything here is a pure function of
    (app, config, index) — workers return these, never traces. *)
type schedule_result = {
  s_index : int;
  s_policy : string;  (** Rendered policy, e.g. ["pct(depth=3)"]. *)
  s_sched_seed : int;
  s_events : int;
  s_fingerprint : string;
      (** {!Trace.Trace_io.fingerprint} of the schedule's trace — the
          distinct-interleaving signature. *)
  s_canonical : (string * string) list;
      (** HawkSet's canonical report set for this schedule. *)
  s_observed : (string * string) list;
      (** Sorted distinct directly-observed (store, load) location
          pairs — what a PMRace-style detector can report from this
          interleaving, including lock-protected ones. *)
  s_racy : (string * string) list;
      (** The lock-free subset of [s_observed]
          ({!Machine.Sched.observation}[.obs_racy]) — the pairs the
          dominance check requires in [s_canonical]. *)
  s_error : string option;
      (** The schedule raised (deadlock, app failure) — counted as an
          oracle violation. *)
}

type divergence = {
  d_index : int;  (** The divergent schedule. *)
  d_missing : (string * string) list;
      (** Lock-free observed inconsistencies the lockset analysis did
          not report (dominance violations). *)
  d_extra : (string * string) list;
      (** Report disagreement against a schedule with the same trace
          fingerprint (determinism violations): pairs present in
          exactly one of the two reports. *)
  d_base_fixture : string option;  (** Dumped reference trace, if any. *)
  d_fixture : string option;  (** Dumped divergent trace, if any. *)
}

type bug_hits = {
  b_id : int;
  b_desc : string;
  b_hawkset : int;  (** Schedules whose HawkSet report finds the bug. *)
  b_pmrace : int;  (** Schedules that directly observed the bug. *)
}

type t = {
  x_app : string;
  x_config : config;
  x_results : schedule_result list;  (** In schedule order. *)
  x_baseline : (string * string) list;
      (** The union of every schedule's canonical set — the full racing
          behaviour this exploration exposed for (app, workload seed). *)
  x_divergences : divergence list;
  x_errors : int;
  x_distinct_traces : int;  (** Distinct trace fingerprints. *)
  x_report_sets : int;
      (** Distinct canonical report sets — the coverage jitter across
          interleavings (1 = byte-stable reports). *)
  x_racing_pairs : int;  (** Union of canonical pairs over schedules. *)
  x_observed_pairs : int;  (** Union of observed pairs over schedules. *)
  x_bug_hits : bug_hits list;  (** Per ground-truth bug, in id order. *)
  x_seconds : float;  (** Wall clock (quarantined like every gauge). *)
}

val stable : t -> bool
(** Zero divergences and zero erroring schedules. *)

val run : ?config:config -> Pmapps.Registry.entry -> t
(** Explore one application. [ops] is clamped by the entry's cap.
    Deterministic up to [x_seconds] and fixture paths: same entry and
    config produce the same results whatever [jobs] is. *)

val save_schedule :
  ?config:config -> Pmapps.Registry.entry -> index:int -> string -> string option
(** Re-execute one schedule of the sweep deterministically and save its
    checksummed trace to the given path — the same machinery the oracle
    uses to dump divergence fixtures, usable directly to (re)generate
    golden schedule traces. [None] if the schedule raises. *)

val counters : t list -> (string * int) list
(** The deterministic coverage counters of a sweep, summed over apps:
    [explore.schedules], [explore.schedule_errors],
    [explore.divergences], [explore.distinct_traces],
    [explore.report_sets], [explore.racing_pairs],
    [explore.observed_pairs], computed from the results. They are the
    sweep's only source; {!Obs.Registry.global} holds no [explore.*]
    counter. *)

val manifest : t list -> Obs.Manifest.t
(** Obs manifest for a sweep: labels (apps, policy, schedules, depth,
    jobs, seed, ops), the {!counters} and wall-clock gauges
    ([explore.seconds], [explore.schedules_per_sec]). [jobs] is a label,
    never a counter, so the manifest is byte-comparable across [jobs]. *)
