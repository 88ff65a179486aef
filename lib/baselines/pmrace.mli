(** PMRace-style observation-based detection (Chen et al., ASPLOS'22).

    PMRace's first stage — the one compared in Table 3 — searches for
    {e PM inter-thread inconsistencies} by fuzzing: starting from a seed
    workload it repeatedly mutates the workload and re-executes the
    application with delay injection, hoping to {e directly observe} an
    interleaving in which a thread loads another thread's
    visible-but-not-durable data. A race that is never observed is never
    reported — the structural difference from lockset analysis that
    Table 3 quantifies.

    The runtime observation itself comes from the machine's [observe]
    mode: a load of bytes whose last writer is another thread and whose
    cache line is not yet guaranteed persistent. *)

type report = {
  executions : int;  (** Application runs performed. *)
  observations : Machine.Sched.observation list;
      (** Deduplicated (store site, load site) inconsistencies observed
          across all executions. *)
  seconds : float;  (** Wall-clock time of the whole campaign. *)
}

val fuzz :
  run:
    (per_thread:Workload.Op.kv list array ->
    seed:int ->
    policy:Machine.Sched.policy ->
    observe:bool ->
    Machine.Sched.report) ->
  seed_workload:Workload.Op.kv list ->
  ?threads:int ->
  ?executions:int ->
  ?mutation_seed:int ->
  ?delay_probability:float ->
  ?delay_duration:int ->
  unit ->
  report
(** [fuzz ~run ~seed_workload ()] executes the application [executions]
    times (default 20): the first run uses the seed workload verbatim,
    every later run a fresh mutation of it, each under delay injection
    with a different scheduler seed. [run] is the application driver
    (e.g. a closure over [Driver.run_kv]). *)

val observe_once : (unit -> Machine.Sched.report) -> Machine.Sched.report
(** One observed execution outside a campaign ([hawkset run -d pmrace]):
    runs the thunk and counts it like a {!fuzz} execution, in
    [pmrace.executions] and [pmrace.observation_hits] (its distinct
    store/load location pairs). *)

val observed :
  report -> store_locs:string list -> load_locs:string list -> bool
(** Did the campaign directly observe an inconsistency matching the given
    ground-truth site pair? *)
