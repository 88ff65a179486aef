(** Stage 3: the PM-Aware Lockset Analysis (Algorithm 1).

    Pairs every store window with every load on an overlapping address
    range from a different thread that may execute concurrently according
    to the inter-thread happens-before analysis, and reports a
    persistency-induced race when the store's effective lockset and the
    load's lockset are disjoint (ignoring timestamps, which are only
    meaningful thread-locally).

    The implementation uses the optimizations of §4 instead of the
    quadratic presentation: accesses are grouped by word, records are
    deduplicated upstream, lockset/vector-clock comparisons are memoized
    on interned ids — with the id pair packed into a single int key, so a
    memo probe allocates nothing — and each (window, load) pair is
    examined at a single canonical word even when the ranges share
    several.

    Slots (load-bearing words) are visited in ascending word order, so the
    produced report is a deterministic function of the collected records —
    independent of hash-table layout.

    The [features] record exposes the design-ablation switches used by the
    evaluation: each corresponds to one step of the §3.1 construction. *)

type features = {
  effective_lockset : bool;
      (** [false]: use the store-time lockset instead of the effective
          lockset — traditional lockset analysis, misses Figure 1c. *)
  timestamps : bool;
      (** [false]: ignore logical-clock timestamps when intersecting the
          store and persist locksets — misses Figure 2d. *)
  vector_clocks : bool;
      (** [false]: skip the happens-before filter — reintroduces the
          Figure 3 false positives. *)
}

val all_features : features
val traditional : features
(** Plain lockset analysis with only the happens-before filter. *)

type outcome = {
  report : Report.t;
  pairs : int;
      (** (window, load) pairs examined — the work metric reported by the
          efficiency benchmarks. *)
  words_analysed : int;
      (** Slots actually visited; < [words_total] only when a [stop]
          predicate cut the run short. *)
  words_total : int;
}

val run :
  ?features:features ->
  ?stop:(unit -> bool) ->
  Collector.result ->
  outcome
(** Runs Algorithm 1 over the collected access records, sequentially, and
    returns the report together with the pair count. [stop] is polled at
    word boundaries; when it returns [true] the remaining words are
    skipped and the outcome covers exactly the words visited
    ([words_analysed] of [words_total]) — the pipeline's deadline
    degradation. *)
