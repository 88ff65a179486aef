(** Instrumented concurrent PM runtime.

    This module plays the role of Intel PIN plus the hardware in the
    paper's pipeline (Figure 4, stage 1): applications run as cooperative
    fibers (OCaml effect handlers) on a deterministic seeded scheduler, and
    every PM access, persistency instruction, synchronization operation and
    thread lifecycle event is recorded into a {!Trace.Tracebuf.t} — the
    exact event stream HawkSet's analysis consumes.

    Every instrumented operation is a scheduling point, so thread
    interleavings happen at the granularity that matters for
    persistency-induced races. Executions are replayable: the trace is a
    pure function of (program, heap contents, seed, policy). *)

type t
(** A running machine (scheduler + instrumentation state). *)

type ctx
(** A thread's handle on the machine. Every instrumented operation takes
    the calling thread's [ctx]. *)

(** Scheduling policies. *)
type policy =
  | Random_interleave  (** Uniform choice among runnable threads. *)
  | Round_robin
  | Delay_injection of { probability : float; duration : int }
      (** Random interleaving, plus: after a PM store, with the given
          probability the storing thread is descheduled for [duration]
          scheduling rounds — widening the window in which other threads
          can observe the unpersisted data. This is the PMRace baseline's
          search heuristic (§6.3). *)
  | Targeted_delay of { store_loc : string; duration : int }
      (** Random interleaving, plus: a thread that stores at the
          ["file:line"] location [store_loc] is descheduled for
          [duration] rounds — the Durinn baseline's adversarial
          interleaving around one suspected access (§6.3's
          "breakpoints at the relevant points"). *)
  | Scripted of int array
      (** Fully deterministic replay: at the [i]-th scheduling decision,
          pick runnable thread number [choices.(i) mod runnable_count].
          Once the script is exhausted, decisions fall back to
          {!Round_robin}, so a thread spinning on a yield-loop lock still
          lets the holder run. Enumerating scripts enumerates
          interleavings — used to exhibit concrete witness schedules for
          reported races. *)
  | Pct of { depth : int }
      (** Probabilistic concurrency testing (PCT): every thread draws a
          random priority at spawn and the scheduler runs the
          highest-priority runnable thread, demoting the current top
          below everyone else at up to [depth - 1] randomly placed
          change points — biased towards the rare orderings a uniform
          random walk almost never produces. Change points are placed
          geometrically (one chance in 64 per decision) rather than at
          pre-drawn event indices, and one decision in 16 falls back to
          a uniform pick so threads spinning on a yield-loop lock held
          by a demoted thread cannot starve it forever. Like every
          policy, the schedule is a pure function of the seed. *)

type outcome =
  | Completed
  | Crashed  (** The run was cut short by [crash_after_events]. *)

(** A directly-observed inter-thread inconsistency: a load that read bytes
    last written by another thread and not yet guaranteed persistent. The
    PMRace baseline reports races only from these observations. *)
type observation = {
  obs_store_site : Trace.Site.t;
  obs_load_site : Trace.Site.t;
  obs_addr : int;
  obs_racy : bool;
      (** [true] when the read is in scope for the lockset analysis:
          no instrumented lock was held by both the storing thread (at
          store time) and the loading thread (at load time), and the
          read is not a successful CAS. Such observations are
          concurrent under Definition 1 and must also be found by the
          lockset analysis. [false] marks the two exclusions visible
          only to observation-based detection: a common lock orders
          the pair, and a successful CAS's read closes the store's
          window itself, with a vector clock equal to the load's, so
          Algorithm 1's clock comparison prunes it. *)
}

(** One run's counts, the source of the [sched.*] and [pmem.*] metrics:
    {!run} adds them to {!Obs.Registry.global} once, also when it raises. *)
type stats = private {
  mutable points : int;  (** Scheduling points. *)
  mutable context_switches : int;  (** Decisions that ran another thread. *)
  mutable delays_injected : int;
  mutable pct_priority_changes : int;
  runnable : Obs.Metric.histogram;  (** Threads eligible per decision. *)
  mutable pmem : Pmem.Heap.stats;  (** The heap's counts during the run. *)
}

type report = {
  outcome : outcome;
  trace : Trace.Tracebuf.t;
  event_count : int;
  observations : observation list;
      (** Empty unless [observe:true] was passed to {!run}. *)
  thread_count : int;  (** Threads spawned, the main thread included. *)
  stats : stats;
}

exception Deadlock of string
(** Raised when no thread is runnable but parked threads remain. *)

val run :
  ?seed:int ->
  ?policy:policy ->
  ?sync_config:Sync_config.t ->
  ?crash_after_events:int ->
  ?crash_after_fences:int ->
  ?observe:bool ->
  ?pm_regions:Pmem.Region.t ->
  heap:Pmem.Heap.t ->
  (ctx -> unit) ->
  report
(** [run ~heap main] executes [main] as the initial thread and returns
    once every spawned thread has finished (or the crash budget fired).
    [crash_after_events:n] stops the machine at the first instrumented
    operation once [n] events have been recorded;
    [crash_after_fences:n] at the first instrumented operation after the
    [n]-th fence retires — the crash points the crash sweep enumerates
    (every persist boundary). Both may be given; whichever fires first
    stops the run. Defaults: [seed = 0], [policy = Random_interleave],
    [sync_config = Sync_config.builtin], no crash, [observe = false].
    [pm_regions] registers which address ranges are mmap'ed PM files
    (§4/§A.5): accesses outside them are ordinary volatile memory —
    executed but not traced. By default the whole heap is one PM region.
    Application exceptions propagate to the caller. *)

(** {1 Thread operations} *)

val tid : ctx -> Trace.Tid.t
val heap : ctx -> Pmem.Heap.t

val spawn : ctx -> (ctx -> unit) -> Trace.Tid.t
(** Creates a thread; emits [Thread_create]. The child starts at a later
    scheduling decision. *)

val join : ctx -> Trace.Tid.t -> unit
(** Blocks until the thread finishes; emits [Thread_join] at completion
    time (the point at which the joined thread's history becomes ordered
    before the waiter's, §3.1.2). *)

val yield : ctx -> unit
(** A bare scheduling point (no event emitted). *)

type pos = string * int * int * int
(** [__POS__]: instrumented operations take the source position of the
    access so reports carry real [file:line] sites like Table 2. *)

(** {1 PM accesses}

    All addresses index the machine's heap. Each access writes/reads the
    volatile image, updates the cache simulation, emits its event and
    yields to the scheduler. *)

val store_i64 : ctx -> pos -> int -> int64 -> unit
val store_i64_nt : ctx -> pos -> int -> int64 -> unit
(** Non-temporal store: bypasses the cache; needs only a fence. *)

val load_i64 : ctx -> pos -> int -> int64
val store_u8 : ctx -> pos -> int -> int -> unit
val load_u8 : ctx -> pos -> int -> int
val store_bytes : ctx -> pos -> int -> bytes -> unit
val load_bytes : ctx -> pos -> int -> int -> bytes

val cas_i64 : ctx -> pos -> int -> expected:int64 -> desired:int64 -> bool
(** Atomic compare-and-swap on a PM word: emits a [Load] and, on success,
    a [Store], with no scheduling point in between. *)

(** {1 Persistency instructions} *)

val flush_line : ctx -> pos -> int -> unit
(** [flush_line ctx p addr] issues a [clwb] of the cache line containing
    [addr]. *)

val flush_range : ctx -> pos -> int -> int -> unit
(** Flushes every line touched by [addr, addr+size). *)

val fence : ctx -> pos -> unit
(** [sfence]: completes the calling thread's pending flushes and
    non-temporal stores. *)

val persist : ctx -> pos -> int -> int -> unit
(** [flush_range] followed by [fence] — the canonical persist idiom. *)

(** {1 PM allocation} *)

val alloc : ctx -> ?align:int -> int -> int
val free : ctx -> addr:int -> size:int -> unit

(** {1 Backtraces} *)

val with_frame : ctx -> string -> (unit -> 'a) -> 'a
(** [with_frame ctx "insert" f] runs [f] with ["insert"] pushed on the
    thread's call stack; sites recorded inside carry the stack (the
    paper's cheap call/return instrumentation, §4). *)

(** {1 Internals for synchronization primitives}

    Used by {!Mutex}, {!Rwlock} and {!Spinlock}; applications normally do
    not call these directly. *)

val fresh_lock_id : ctx -> Trace.Lock_id.t

val emit_acquire : ctx -> pos -> primitive:string -> Trace.Lock_id.t -> unit
(** Emits [Lock_acquire] — only when [primitive] is instrumented by the
    machine's {!Sync_config}. *)

val emit_release : ctx -> pos -> primitive:string -> Trace.Lock_id.t -> unit
(** Emits [Lock_release]; does {e not} yield — primitives release their
    state and then {!yield}, so other threads observe the free lock. *)

val park : ctx -> unit
(** Blocks the calling thread until {!unpark}. *)

val unpark : ctx -> Trace.Tid.t -> unit
(** Makes a parked thread runnable again (callable from any thread). *)

val random : ctx -> Prng.t
(** The machine's PRNG (shared); for deterministic in-app randomness. *)
