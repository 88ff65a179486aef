(** The executable specification: stages 1-3, literally.

    A deliberately naive, allocation-happy transcription of the paper's
    pipeline — memory simulation, lock/thread tracking and publication
    (stages 1-2), then the PM-aware lockset analysis of Algorithm 1
    (stage 3) — working on whole values: association lists instead of
    interning tables, linear scans instead of packed-key dedup sets,
    quadratic pair loops instead of memo tables, and witness provenance
    resolved eagerly. Short enough to audit against the paper line by
    line, which makes it the oracle the differential conformance fuzzer
    ([hawkset check]) pits against the production pipeline: the two must
    produce byte-identical {!Report.to_json} output on every trace.

    The specification intentionally shares none of the production
    kernel's optimization machinery and never consults {!Fault} — a
    seeded mutation that corrupted both sides identically would be
    invisible. *)

type config = {
  irh : bool;  (** Initialization removal heuristic (§3.1.3). *)
  effective_lockset : bool;  (** Intersect store/close locksets (§3.1.2). *)
  timestamps : bool;  (** Timestamp-aware same-thread intersection. *)
  vector_clocks : bool;  (** Happens-before window filter. *)
  eadr : bool;  (** eADR: stores durable on visibility. *)
}

val default_config : config
(** All heuristics on, [eadr] off — the semantics of {!Pipeline.default}
    with {!Analysis.all_features}. *)

val config_of_pipeline : Pipeline.config -> config
(** The semantic knobs of a pipeline config (jobs, budgets and deadlines
    do not change what a complete run computes). *)

val pipeline : ?config:config -> ?event_budget:int -> Trace.Tracebuf.t -> Report.t
(** The whole specification: consume the trace (or its [event_budget]
    prefix, mirroring {!Pipeline.run}'s deterministic cut), run stages
    1-3 and aggregate the report. [Report.to_json] of the result must
    equal the production pipeline's byte for byte. *)

val analyse : ?config:config -> Collector.result -> Report.t
(** Stage 3 alone on production-collected records: the same naive pair
    loop reading the per-word record arrays through the interning
    tables. Oracle for {!Analysis.run}'s report
    on an already-collected result. Only [config]'s [effective_lockset] and
    [vector_clocks] fields are consulted (the rest shaped collection). *)

val locs : Report.t -> (string * string) list
(** Sorted distinct (store location, load location) pairs. *)

val same_races : Report.t -> Report.t -> bool
(** Equality of the reported (store location, load location) sets. *)
