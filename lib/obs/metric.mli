(** Metric primitives: counters and histograms.

    They must be bumped only on deterministic control paths (event counts,
    cache hits, scheduling decisions): for a fixed scheduler seed their
    values are a pure function of the run, and tests assert exact values.
    They reach snapshots, under their names, through {!Registry}. *)

type counter
type histogram

val counter : unit -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val histogram : ?bounds:int array -> unit -> histogram
(** [bounds] are inclusive upper bounds, strictly increasing; one overflow
    bucket is added. Default: powers of two up to 1024. *)

val observe : histogram -> int -> unit

val merge : into:histogram -> histogram -> unit
(** Adds the second histogram's observations to [into]; same bounds. *)

val bounds : histogram -> int array

val cells : histogram -> (string * int) list
(** Flattened bucket view in bound order ([le_N]..., [overflow]), followed
    by [count], [sum] and [max] — deterministic for deterministic input. *)

val reset_counter : counter -> unit
val reset_histogram : histogram -> unit
