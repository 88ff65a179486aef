(** A pool of persistent worker domains, serving job-level width only:
    {!run_queue} drains batch jobs and {!map} runs explore's schedule
    chunks. Stage 3 itself always runs sequentially on the calling
    domain.

    [Domain.spawn] costs a thread, a minor heap and a handshake with
    every running domain. The pool spawns each worker once; a wide call
    costs two lock transitions per worker.

    A call runs its tasks on {e slots}: slot 0 is the calling domain,
    slot [s >= 1] is worker [s - 1].

    {b One slot runs inline.} A call that needs one slot (a 1-task
    {!map}, a [~workers:1] {!run_queue}) runs its tasks on the caller,
    under the caller's current {!Obs.Timeline} lane. It spawns nothing,
    takes no pool lock while its tasks run, and so may be nested inside
    another call's task. Width 1 is therefore the sequential run, with
    no separate code path in any caller.

    {b Width cap.} A wider call binds slot [s] to timeline lane [s], so
    the pool holds at most [max_slots - 1] workers. A call that needs
    more than {!max_slots} slots raises [Invalid_argument] before it
    spawns anything.

    Determinism contract: [map fns] runs [fns.(i)] on slot [i] — a
    stable task-to-domain mapping, so each task's timeline lane is the
    same on every call. *)

type t

exception Pool_closed
(** Raised by {!map}, {!run_queue} and {!ensure} after {!shutdown} (even
    for calls that would run inline): submitting to a stopped pool would
    otherwise park the task forever. *)

exception Worker_lost of int
(** Raised by {!map} when a worker domain died mid-call (slot index in
    the failed call's numbering). The tasks that did complete are lost
    with the call; the slot is respawned transparently on the next wide
    call, so the caller's retry runs on a healthy pool. *)

val max_slots : int
(** Widest call the pool serves: {!Obs.Timeline.max_lanes} (64), the
    caller plus 63 workers. *)

val create : unit -> t
(** A pool with no workers; they are spawned by {!ensure} or on demand by
    a wide call. *)

val global : unit -> t
(** The process-wide pool, shut down automatically at exit. *)

val size : t -> int
(** Workers currently spawned. *)

val ensure : t -> int -> unit
(** [ensure t n] grows the pool to at least [n] workers (a call of
    [n + 1] slots whose tasks do nothing). Call it outside timed regions
    to keep the one-time spawn cost out of them. Raises {!Pool_closed}
    after {!shutdown}, and [Invalid_argument] when [n + 1 > max_slots]
    (the pool is left as it was). *)

val map : t -> (unit -> 'a) array -> ('a, exn) result array
(** [map t fns] runs every [fns.(i)] concurrently on slot [i] and
    returns their outcomes in order; an exception is captured as [Error]
    for that task only. A 1-task map runs inline; a wider one grows the
    pool to [length fns - 1] workers if needed, binds task [i] to
    {!Obs.Timeline} lane [i] and is serialised with other wide calls —
    the pool's workers are a shared resource, not a scheduler.

    Raises {!Pool_closed} after {!shutdown}, [Invalid_argument] when
    [length fns > max_slots], and {!Worker_lost} when a worker domain
    died during the call (a supervisor should retry; the lost slot
    respawns on the next call). *)

val run_queue : t -> workers:int -> (unit -> 'a) array -> ('a, exn) result array
(** [run_queue t ~workers fns] drains the [fns] through
    [min (max 1 workers) (length fns)] slots pulling task indices off a
    shared counter — the scheduling primitive behind batches. Result
    order is deterministic ([i]-th result is [fns.(i)]'s outcome);
    task-to-slot placement is {e not}, so in a wide call a task's
    timeline lane may differ between calls. One slot drains the tasks
    in index order inline on the caller. A wide drain holds the pool
    lock throughout, so its tasks must never make a wide call of their
    own (that self-deadlocks). Raises as {!map} does: {!Pool_closed},
    [Invalid_argument] over {!max_slots} slots, and {!Worker_lost} when
    a worker died mid-drain (remaining results of that call are lost;
    the slot respawns on the next call). *)

val shutdown : t -> unit
(** Stop and join every worker, then close the pool: subsequent {!map},
    {!run_queue} or {!ensure} calls raise {!Pool_closed} instead of
    hanging on a stopped worker. Idempotent — a second call is a no-op.
    In-flight calls must have returned before the first call. *)
