(** A pool of persistent worker domains, serving job-level width only:
    {!run_queue} drains batch jobs and {!map} runs explore's schedule
    chunks. Stage 3 itself always runs sequentially on the calling
    domain.

    [Domain.spawn] costs a thread, a minor heap and a handshake with
    every running domain. The pool spawns each worker once; a {!map}
    call costs two lock transitions per worker.

    Determinism contract: [map fns] runs [fns.(0)] on the calling domain
    and [fns.(i)] on worker [i - 1] — a stable task-to-domain mapping, so
    each task's {!Obs.Timeline} lane is the same on every call. *)

type t

exception Pool_closed
(** Raised by {!map} and {!ensure} after {!shutdown}: submitting to a
    stopped pool would otherwise park the task forever. *)

exception Worker_lost of int
(** Raised by {!map} when a worker domain died mid-call (slot index in
    the failed call's task numbering). The tasks that did complete are
    lost with the call; the slot is respawned transparently on the next
    {!map}, so the caller's retry runs on a healthy pool. *)

val create : unit -> t
(** A pool with no workers; they are spawned by {!ensure} or on demand by
    {!map}. *)

val global : unit -> t
(** The process-wide pool, shut down automatically at exit. *)

val size : t -> int
(** Workers currently spawned. *)

val ensure : t -> int -> unit
(** [ensure t n] grows the pool to at least [n] workers. Call it outside
    timed regions to keep the one-time spawn cost out of them. Raises
    {!Pool_closed} after {!shutdown}. *)

val map : t -> (unit -> 'a) array -> ('a, exn) result array
(** [map t fns] runs every [fns.(i)] concurrently (task 0 on the calling
    domain) and returns their outcomes in order; an exception is captured
    as [Error] for that task only. Grows the pool if it has fewer than
    [length fns - 1] workers. Concurrent [map] calls from different
    domains are serialised — the pool's workers are a shared resource,
    not a scheduler.

    Each task runs with {!Obs.Timeline} lane [i] bound (the stable
    task-to-domain mapping makes lane contents deterministic).

    Raises {!Pool_closed} after {!shutdown}, and {!Worker_lost} when a
    worker domain died during the call (a supervisor should retry; the
    lost slot respawns on the next call). *)

val run_queue : t -> workers:int -> (unit -> 'a) array -> ('a, exn) result array
(** [run_queue t ~workers fns] drains the [fns] through at most [workers]
    concurrent slots (slot 0 on the calling domain, slot [s >= 1] on
    worker [s - 1]) pulling task indices off a shared counter — the
    scheduling primitive behind job-concurrent batches. Result order is
    deterministic ([i]-th result is [fns.(i)]'s outcome); task-to-slot
    placement is {e not}, so a task's timeline lane may differ between
    calls. Each task binds its slot's {!Obs.Timeline} lane. The whole
    drain is serialised with other pool calls — tasks must never
    re-enter the pool ({!map}/{!run_queue}/{!ensure} self-deadlock). Raises {!Pool_closed} after {!shutdown} and
    {!Worker_lost} when a worker died mid-drain (remaining results of
    that call are lost; the slot respawns on the next call). *)

val shutdown : t -> unit
(** Stop and join every worker, then close the pool: subsequent {!map}
    or {!ensure} calls raise {!Pool_closed} instead of hanging on a
    stopped worker. Idempotent — a second call is a no-op. In-flight
    [map] calls must have returned before the first call. *)
