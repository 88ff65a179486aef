(** Central metric registry: named counters, histograms and spans.

    A per-event layer counts its run in its own fields and hands the
    totals over once, with {!publish}; a per-operation layer may bump a
    {!counter} handle instead. Front ends {!reset} the global registry at
    the start of a run and snapshot it at the end; the snapshot is the
    deterministic half of a {!Manifest.t}. *)

type t

val create : unit -> t

val global : t
(** The registry every built-in subsystem reports into: the process
    aggregate, not a per-run source. *)

val counter : ?registry:t -> string -> Metric.counter

val publish :
  ?registry:t -> ?histograms:(string * Metric.histogram) list ->
  (string * int) list -> unit
(** [publish totals] adds one run's [(name, count)] totals to the named
    counters and merges [histograms] into the like-named ones, creating
    each on first use, under one lock: exact at any number of domains. *)

val reset : t -> unit
(** Zero every value and drop recorded spans; handles stay valid. Call
    it outside any open span. *)

(** {1 Snapshots} — sorted by name, so equal runs produce equal lists. *)

val counters : t -> (string * int) list
val histograms : t -> (string * (string * int) list) list

val with_span : ?registry:t -> ?arg:int -> string -> (unit -> 'a) -> 'a
(** The one way a layer opens a span. [with_span ~arg name f] times [f]
    on the {!Clock} and accumulates (count, seconds) under the
    slash-joined path of the open spans' {e stages}, where a name's stage
    is its last dotted component: ["pipeline.collect"] nested in ["run"]
    records as ["run/collect"]. When the {!Timeline} is enabled it also
    records [Begin]/[End] events named [name] on the caller's lane, both
    with [arg] (default 0). Nesting is tracked per domain, so concurrent
    jobs on worker domains each build their own paths. *)

val spans : t -> (string * (int * float)) list

val delta :
  before:(string * int) list ->
  after:(string * int) list ->
  (string * int) list
(** Per-phase view of an accumulating registry: every [after] key with the
    matching [before] value subtracted. Inputs must be sorted by name. *)
