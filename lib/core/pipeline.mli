(** HawkSet's end-to-end pipeline (Figure 4): trace in, race reports out.

    The pipeline is application-agnostic: it consumes only the event trace
    and never inspects application state, mirroring the paper's claim that
    any producer of the instrumentation events can be analysed. *)

type config = {
  irh : bool;  (** Stage 2, the Initialization Removal Heuristic. *)
  effective_lockset : bool;  (** §3.1.2's effective lockset (vs. store-time). *)
  timestamps : bool;  (** Logical-clock extension of the lockset. *)
  vector_clocks : bool;  (** Inter-thread happens-before filter. *)
  eadr : bool;
      (** Analyse under the §2.1 eADR assumption (persistent cache):
          no window ever exists, so nothing is reported — the flag shows
          that the whole bug class is an artifact of the volatile cache. *)
  jobs : int;
      (** Has no effect: stage 3 always runs the sequential {!Analysis.run}
          on the calling domain. The field remains only so that existing
          record literals that set it still compile. *)
  event_budget : int option;
      (** Analyse at most this many trace events: an oversized trace is
          cut to its budget-sized prefix (recorded in
          {!result.truncated}). Deterministic — the same trace and budget
          always analyse the same prefix. [None] = unbounded. *)
  collect_deadline_s : float option;
      (** Wall-clock budget for stage 1. On expiry collection stops at the
          next 512-event boundary and the pipeline continues with the
          records gathered so far. Best-effort and {e nondeterministic}
          (see DESIGN: degradation contract). [None] = unbounded. *)
  analyse_deadline_s : float option;
      (** Wall-clock budget for stage 3, polled at word boundaries.
          Same nondeterminism caveat. [None] = unbounded. *)
}

val default : config
(** Everything on, no budgets or deadlines — the configuration evaluated
    in the paper. *)

val no_irh : config
(** [default] with the IRH disabled — the Table 4 comparison point. *)

(** One recorded degradation: which stage gave up, why
    (["event_budget"] or ["deadline"]), and how much of
    its work domain it covered — events for stage 1, canonical words for
    stage 3. *)
type truncation = {
  trunc_stage : string;
  trunc_reason : string;
  trunc_done : int;
  trunc_total : int;
}

type result = {
  races : Report.t;
  collector_stats : Collector.stats;
  pairs_examined : int;
      (** From {!Analysis.outcome.pairs} — the per-run value, safe under
          concurrent analyses. *)
  analysis_seconds : float;
      (** Wall-clock time of collection + analysis (the "testing time" the
          efficiency evaluation reports excludes workload generation). *)
  truncated : truncation list;
      (** Empty on a complete run. Non-empty means the report is a sound
          analysis of {e part} of the trace (each entry says which part):
          races it contains are real findings, but absence of a race is no
          longer evidence of absence. In stage order; the
          [pipeline.truncations] counter mirrors the length. *)
}

val run : ?config:config -> Trace.Tracebuf.t -> result
(** Runs collection then analysis under [config]. Degradation contract:
    with budgets/deadlines set [run] still returns a [result] — work is
    dropped, never the report; every drop is itemized in
    {!result.truncated}. *)

val races : ?config:config -> Trace.Tracebuf.t -> Report.t
(** Shorthand for [(run trace).races]. *)
