(** Timeline profiler: bounded per-lane rings of begin/end/instant events
    with a Chrome-trace-event (Perfetto-loadable) exporter.

    Lanes map to domain slots: the caller records on lane 0, pool worker
    [i - 1] on lane [i] (the pool's stable task-to-domain mapping makes
    this assignment deterministic). Each lane is written only by its
    owning domain, so recording is lock-free — a single atomic load when
    disabled, plain array stores when enabled.

    Determinism contract: the per-lane {e sequence} of
    [(kind, name, arg)] triples is a pure function of the seed and
    configuration. Timestamps are wall-clock and quarantined like the
    manifest's gauges — {!signature} excludes them so tests can
    byte-compare sequences. On ring overflow the new event is dropped
    (never an old one) and the lane's drop counter is bumped, so a full
    ring still holds an exact prefix of the untruncated sequence. *)

type handle
(** An interned event name. Intern once at module initialization with
    {!name}; recording takes the handle, not the string. *)

type kind = Begin | End | Instant

type event = { ev_kind : kind; ev_name : string; ev_arg : int; ev_ts : float }

val max_lanes : int
(** Number of lanes (64). [set_lane] beyond this raises. *)

val name : string -> handle
(** Intern an event name (thread-safe; idempotent per string). *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Recording is off by default; every record call is a single atomic
    load when disabled. *)

val set_capacity : int -> unit
(** Set the per-lane ring capacity (default 8192) and {!reset}. Call only
    while no other domain is recording. *)

val capacity : unit -> int

val reset : unit -> unit
(** Clear every lane (events and drop counters). Call only while no
    other domain is recording. *)

val current_lane : unit -> int
(** The calling domain's lane (domain-local; defaults to 0). *)

val set_lane : int -> unit
(** Bind the calling domain to a lane. Raises [Invalid_argument] outside
    [0, max_lanes). *)

val with_lane : int -> (unit -> 'a) -> 'a
(** Run [f] with the calling domain bound to the given lane, restoring
    the previous lane afterwards. *)

val begin_ : ?arg:int -> handle -> unit
(** Open a duration event on the calling domain's lane. Matched
    [begin_]/[end_] pairs nest in the exported trace. Layers do not call
    this directly: {!Registry.with_span} records the pair together with
    the manifest stage. *)

val end_ : ?arg:int -> handle -> unit

val instant : ?arg:int -> handle -> unit
(** Record a point event (truncation, crash point, ...). *)

val events : int -> event list
(** Recorded events of a lane, in recording order. *)

val dropped : int -> int
(** Events dropped by a lane due to ring overflow. *)

val used_lanes : unit -> int list
(** Ascending lanes that recorded (or dropped) at least one event. *)

val signature : int -> string
(** The deterministic half of a lane: one ["<kind> <name> <arg>"] line
    per event plus a ["dropped <n>"] trailer, timestamps excluded. Fixed
    seed, fixed config => byte-identical signature. *)

val to_chrome_json : unit -> string
(** Export all used lanes as Chrome trace-event JSON
    ([{"traceEvents":[...]}]) loadable in Perfetto / chrome://tracing.
    One [tid] per lane with a [thread_name] metadata record; [B]/[E]
    duration events nest; instants are thread-scoped; a lane that
    overflowed gets a trailing ["timeline.dropped"] instant. *)

val duration_gauges : unit -> (string * float) list
(** Per-name duration stats derived from matched begin/end pairs across
    all lanes: [timeline.<name>.count], [timeline.<name>.total_s],
    [timeline.<name>.max_s], sorted by key. Wall-clock — manifest
    gauges, never counters. *)
