(** Differential conformance runner, delta-debugging minimizer and
    mutation self-test.

    The oracle is {!Hawkset.Reference.pipeline} — the naive executable
    specification. [divergences] replays one trace through the
    production pipeline across the configuration matrix (the assembled
    pipeline on the full trace and on an event-budget prefix, plus a
    result-cache cold/warm round trip) and reports every variant whose
    {!Hawkset.Report.to_json} bytes differ from the specification's — a
    witness, occurrence-count, ordering or site mismatch all surface, as
    does a production crash.

    [minimize] shrinks a failing trace with ddmin to a locally-minimal
    reproducer: removing any single event makes the failure disappear.

    [hunt] is the self-test: arm one {!Hawkset.Fault} and prove the
    fuzzer catches it, minimizes it and that the minimized trace passes
    clean with the fault disarmed — the oracle has teeth. *)

type divergence = {
  d_variant : string;  (** Which matrix point diverged, e.g. ["pipeline budget=prefix"]. *)
  d_kind : [ `Report | `Crash ];
  d_expected : string;  (** Specification report JSON. *)
  d_actual : string;  (** Production report JSON, or the exception. *)
}

val divergences : Trace.Tracebuf.t -> divergence list
(** Run the full matrix on one trace. Empty means conformant. Never
    raises on a production failure (it becomes a [`Crash] divergence);
    a specification failure does escape — the oracle crashing is a bug
    in the oracle. *)

val failing : Trace.Tracebuf.t -> bool
(** [divergences t <> []]. *)

val minimize :
  ?failing:(Trace.Tracebuf.t -> bool) -> Trace.Tracebuf.t -> Trace.Tracebuf.t
(** Delta-debug (ddmin) the trace down to a locally-minimal failing
    subsequence under the predicate (default {!failing}). The input must
    fail; the result still fails and loses the failure when any single
    event is removed. Event subsequences are always well-formed inputs —
    the collector is total — so no repair pass is needed. *)

type fuzz_report = {
  fz_traces : int;  (** Traces generated and compared. *)
  fz_events : int;  (** Total events across those traces. *)
  fz_comparisons : int;  (** Matrix points compared. *)
  fz_failures : (int * Trace.Tracebuf.t * divergence) list;
      (** (seed, failing trace, first divergence); minimization is the
          caller's choice. *)
}

val fuzz :
  ?traces:int ->
  ?max_events:int ->
  ?seed:int ->
  ?max_failures:int ->
  unit ->
  fuzz_report
(** Generate [traces] traces from consecutive seeds starting at [seed]
    (defaults 1000 / 64 / 42) and run {!divergences} on each; stop early
    after [max_failures] (default 5) failing traces. *)

type hunt_report = {
  h_fault : Hawkset.Fault.t;
  h_caught_seed : int option;  (** Seed of the first diverging trace; [None] = missed. *)
  h_original_events : int;
  h_minimized : Trace.Tracebuf.t option;  (** Minimized reproducer (fault armed). *)
  h_divergence : divergence option;  (** First divergence of the minimized trace. *)
  h_clean_without_fault : bool;
      (** The minimized trace is conformant once the fault is disarmed —
          i.e. the reproducer isolates the fault, not a real bug. *)
}

val hunt :
  ?traces:int -> ?max_events:int -> ?seed:int -> Hawkset.Fault.t -> hunt_report
(** Arm the fault, fuzz until a divergence appears (same defaults as
    {!fuzz}), minimize it with the fault still armed, then re-check the
    reproducer with the fault disarmed. *)

val save_fixture : dir:string -> name:string -> Trace.Tracebuf.t -> string
(** Write the trace to [dir/name.trace] via {!Trace.Trace_io.save}
    (creating [dir] if needed) and return the path. *)
