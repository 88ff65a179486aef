(** Crash-sweep fault injection.

    HawkSet {e predicts} crash-manifestable races from one execution;
    this subsystem shows the damage is real, systematically. For a given
    (application, workload, seed) it enumerates crash points — after
    every fence/persist boundary and at a configurable stride of
    scheduler events — cuts the deterministic run at each point
    ({!Machine.Sched.run}'s [crash_after_events] / [crash_after_fences]),
    takes the worst-case persistent image ({!Pmem.Heap.crash_image}),
    runs the application's own recovery on it and classifies the result:

    - {b clean recovery}: every operation acknowledged before the crash
      survived;
    - {b durable damage}: recovery succeeded but an acknowledged key is
      missing or reads back neither its last acknowledged value nor the
      value of the write in flight on it;
    - {b recovery raised}: recovery crashed, deadlocked, or exceeded its
      event budget on the corrupted image.

    Damaged and failed points are cross-referenced against the
    application's {!Pmapps.Ground_truth} by running the HawkSet pipeline
    on the crashed prefix trace: a ground-truth bug whose site pair is
    reported on a prefix whose image recovery found damaged is
    {e manifested} — the detector's prediction and the injected fault
    agree on the same execution.

    Every application of the registry has a runner except Apex, which
    exposes no recovery entry point and is analysed but not swept; the
    pmlog control has one too. All runners share one workload and one
    verification rule: each acknowledged key must read back its last
    acknowledged value, or the value of the one write still in flight on
    that key at the cut (MadFS persists a write's log entry before
    [fsync] acknowledges it). *)

(** Classification of one recovered crash image. *)
type outcome =
  | Clean
  | Damaged of string list  (** One message per lost/corrupted datum. *)
  | Recovery_raised of string

type crash_spec = [ `No | `After_events of int | `After_fences of int ]

(** One workload execution, cut (or not) at a crash point. Verification
    is a closure so the sweep can skip it for runs that completed. *)
type execution = {
  ex_report : Machine.Sched.report;
  ex_acked : int;  (** Operations acknowledged before the cut. *)
  ex_at_risk_bytes : int;
      (** {!Pmem.Heap.unpersisted_bytes} at the cut: the data volume a
          crash at this instant puts at risk. *)
  ex_verify : budget:int -> outcome;
      (** Recover the crash image and re-check every acknowledged
          operation. [budget] bounds the recovery run's events so a
          corrupted structure (dangling pointers, cyclic chains) cannot
          hang the sweep — exceeding it classifies as
          {!Recovery_raised}. *)
}

type runner = {
  r_name : string;  (** The application module's [name]. *)
  r_bugs : Pmapps.Ground_truth.bug list;
  r_expect_clean : bool;
      (** Control applications (pmlog, MadFS under its fsync contract):
          any damaged point is a harness bug, not a finding. *)
  r_exec : seed:int -> ops:int -> threads:int -> crash:crash_spec -> execution;
}

val runners : runner list
(** Registry order; Apex excluded (no recovery API). *)

val runner_for : string -> runner option
(** Lookup up to {!Pmapps.Registry.canonical}. *)

type config = {
  c_seed : int;
  c_ops : int;  (** Total main-phase operations across all threads. *)
  c_threads : int;
  c_stride : int;  (** Event-stride between scheduler-event crash points. *)
  c_max_points : int;
      (** Cap per point family (fence points and stride points are each
          evenly subsampled to this many). *)
  c_verify_budget : int;  (** Event budget for each recovery run. *)
  c_dump_dir : string option;
      (** Dump the crashed prefix trace of damaged/failed points (capped
          at two per sweep) into this directory as checksummed [.trace]
          fixtures, replayable with the offline analyser. [None] (the
          default): no dumps. *)
}

val default_config : config
(** seed 42, 400 ops on 4 threads, stride 500, 40 points per family,
    200k-event recovery budget. *)

type point = {
  pt_crash : crash_spec;
  pt_events : int;  (** Events actually traced before the cut. *)
  pt_acked : int;
  pt_at_risk : int;
  pt_outcome : outcome option;  (** [None]: run completed, nothing to verify. *)
  pt_bugs : int list;  (** Ground-truth ids manifested at this point. *)
  pt_fixture : string option;
      (** Where this point's prefix trace was dumped, if it was. *)
}

type sweep = {
  sw_app : string;
  sw_config : config;
  sw_full_events : int;  (** Events of the uncut pilot run. *)
  sw_points : point list;
  sw_completed : int;
  sw_clean : int;
  sw_damaged : int;
  sw_raised : int;
  sw_manifested : int list;
      (** Sorted union of {!point.pt_bugs} — every ground-truth bug that
          both damaged a recovery and was reported on that prefix. *)
}

val run_sweep : ?config:config -> runner -> sweep
(** Pilot-runs the workload uncut to fix the coordinate system (total
    events, fence count), then executes and classifies every enumerated
    crash point: one after each fence and one every [c_stride] events.
    Damaged and failed prefixes are analysed with the pipeline and
    cross-referenced with {!Pmapps.Ground_truth} (the manifested-bug
    column); prefixes with the same trace fingerprint share one analysis
    through a per-sweep {!Hawkset.Result_cache}. Deterministic for a
    fixed (runner, config). *)

val counters : sweep list -> (string * int) list
(** The [crashtest.*] counters of these sweeps, computed from them:
    points, completed, clean, damaged, recovery failures and manifested
    bugs, each summed over the sweeps. *)

val pp_crash : Format.formatter -> crash_spec -> unit
