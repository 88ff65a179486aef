(** Stages 1 and 2 of HawkSet's pipeline (Figure 4).

    Stage 1 — Instrumentation consumption: replays the event trace through
    the Memory Simulation (worst-case cache: store lifetime windows close
    only on explicit flush+fence or on overwrite), Lock Tracking
    (timestamped locksets, the logical clock bumps at every acquisition)
    and Thread Tracking (vector clocks with the §4 batching optimization:
    only the first PM access after a thread creation/join ticks the local
    clock).

    Stage 2 — Initialization Removal Heuristic (§3.1.3): an 8-byte word
    becomes {e published} at its first access by a second thread; stores
    explicitly persisted while still unpublished are discarded, loads
    issued while unpublished are discarded, and unpersisted stores prior
    to publication are kept (they can still race, as in the
    publish-before-persist pattern). As in the paper's implementation, the
    heuristic runs alongside stage 1 rather than as a separate pass.

    The per-event hot paths are allocation-light: all per-word state lives
    in one int-keyed cell found with a single probe, record deduplication
    uses packed single-int keys ({!Trace.Packed_key}) in open-addressing
    int sets, and interned lockset/vector-clock ids are cached per thread
    so repeated events hash nothing. *)

type stats = {
  c_events : int;
  c_stores : int;  (** Store events in the trace. *)
  c_loads : int;  (** Load events in the trace. *)
  c_windows : int;  (** Window records emitted (after dedup + IRH). *)
  c_windows_opened : int;  (** Open-window entries created (per word). *)
  c_windows_closed : int;  (** Entries closed (persist/overwrite/exit). *)
  c_load_records : int;  (** Load records emitted (after dedup + IRH). *)
  c_irh_discarded_stores : int;
  c_irh_discarded_loads : int;
  c_locksets : int;  (** Distinct locksets interned. *)
  c_vclocks : int;  (** Distinct vector clocks interned. *)
  c_words : int;  (** Distinct PM words touched. *)
}

type result = {
  tables : Access.tables;
  words : int array;  (** Record-bearing word indexes, ascending. *)
  windows_of : Access.window array array;
      (** [windows_of.(i)] — windows of [words.(i)], newest-first (the
          iteration order of the cons lists this layout replaces, so the
          report order is unchanged). *)
  loads_of : Access.load array array;  (** Loads per word, newest-first. *)
  slots : int array;
      (** Indexes into [words] carrying at least one load record — the
          deterministic iteration domain of stage 3. Slots
          whose word has no windows are included; the analysis skips
          them. *)
  stats : stats;
}
(** A result is frozen once [collect] returns: stage 3 only ever reads it.
    All reads (array indexing, interner [get]s through [tables]) are
    mutation-free. *)

val collect :
  ?irh:bool ->
  ?timestamps:bool ->
  ?eadr:bool ->
  ?stop:(unit -> bool) ->
  Trace.Tracebuf.t ->
  result
(** [collect trace] replays the trace and produces the deduplicated access
    records, grouped by word. [irh] (default [true]) enables stage 2.
    [stop] is polled every 512 events; when it fires, the remaining events
    are abandoned and the result is exactly the collection of the consumed
    prefix ([stats.c_events] counts consumed events, so a truncated
    collection is visible as [c_events < Tracebuf.length trace]).
    [timestamps] (default [true]) makes the effective-lockset intersection
    timestamp-aware (§3.1.2); disabling it is the Figure 2b ablation that
    misses release-and-reacquire races. [eadr] (default [false]) analyses
    the trace under the §2.1 eADR assumption — the cache is persistent, so
    visible-but-not-durable windows cannot exist and no store records are
    produced (persistency-induced races are impossible by construction).
    Dedup keys are packed into one int ({!Trace.Packed_key}); keys whose
    fields exceed a packed field width (for example tid >= 2^9) spill to
    tuple-keyed tables, so a wide key is never a silent collision. *)

val all_windows : result -> Access.window list
(** Every window record, words ascending, newest-first within a word —
    for baselines and tests that scan the whole record set. *)

val all_loads : result -> Access.load list
(** Every load record, in the same order as {!all_windows}. *)

val pp_stats : Format.formatter -> stats -> unit
