(** Shared execution driver.

    Runs an application under the instrumented runtime with a workload:
    the main thread builds the structure and executes the load phase, then
    the worker threads execute their operation lists concurrently — the
    §5 experimental setup (load phase + 8-thread main phase). The returned
    report carries the trace that HawkSet (or a baseline) analyses. *)

val run_kv :
  (module App_intf.KV) ->
  ?seed:int ->
  ?sched_seed:int ->
  ?policy:Machine.Sched.policy ->
  ?observe:bool ->
  ?crash_after_events:int ->
  load:Workload.Op.kv list ->
  per_thread:Workload.Op.kv list array ->
  unit ->
  Machine.Sched.report

val run_kv_ycsb :
  (module App_intf.KV) ->
  ?seed:int ->
  ?sched_seed:int ->
  ?threads:int ->
  ?policy:Machine.Sched.policy ->
  ?observe:bool ->
  ops:int ->
  unit ->
  Machine.Sched.report
(** The paper's workload: 1k-insert load phase plus [ops] main-phase
    operations in the 30/30/30/10 mix across [threads] (default 8)
    workers.

    Both functions: [seed] generates the workload and, by default, also
    drives the scheduler; [sched_seed] overrides the latter so the same
    operations can be replayed under a different interleaving. *)
