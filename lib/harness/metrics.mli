(** Measurement helpers for the efficiency evaluation (Figure 6). *)

val timed : (unit -> 'a) -> 'a * float
(** Result and wall-clock seconds. *)

val with_live_mb : (unit -> 'a) -> 'a * float
(** [with_live_mb f] runs [f] and returns its result with the {e peak}
    live-heap megabytes observed while it ran, sampled by a [Gc.alarm] at
    the end of every major collection (plus entry/exit samples) — the
    Figure 6b peak-memory series. The alarm is removed even if [f]
    raises. *)

val final_live_mb : unit -> float
(** Live heap megabytes after a full major collection — the end-of-run
    value (the trace, access records and interning tables are all still
    live after an analysis). Reported alongside the peak in Figure 6b. *)

val avg_time_to_race : t:float -> found:int -> missed:int -> float option
(** The §5.2 metric: expected time to find a race when workloads are
    drawn at random without replacement, given the per-workload time [t],
    the number of workloads where the tool finds the race ([found]) and
    where it does not ([missed]). Closed form [t * (missed/2 + 1)]
    (the paper's binomial sum reduces to it); [None] when [found = 0]
    (the race is never found — the paper prints ∞). *)

val avg_time_to_race_binomial : t:float -> found:int -> missed:int -> float option
(** The paper's formula evaluated literally (normalized binomial
    weights), used to cross-check the closed form in tests. *)
