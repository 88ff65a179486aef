(** Registry of the nine evaluated applications (Table 1).

    Each entry bundles an application's workload driver with its ground
    truth, so the evaluation harness can iterate "run app, analyse trace,
    classify reports" uniformly across structurally different programs. *)

type entry = {
  reg_name : string;
  run :
    ?seed:int ->
    ?sched_seed:int ->
    ?policy:Machine.Sched.policy ->
    ?observe:bool ->
    ops:int ->
    unit ->
    Machine.Sched.report;
      (** Executes the §5 workload for this application ([ops] main-phase
          operations, 8 threads) and returns the instrumented report.
          [seed] fixes the workload (and by default the schedule);
          [sched_seed] replays the same workload under a different
          interleaving — the axis {!Explore} sweeps. *)
  bugs : Ground_truth.bug list;
  benign : Ground_truth.benign_rule list;
  max_ops : int option;
      (** P-ART is capped at 1k operations, like the paper's runs. *)
  sync_method : string;  (** Table 1's "Synchronization Method" column. *)
  needs_sync_config : bool;
      (** Required a custom-primitive configuration entry (§5.5). *)
}

val all : entry list
(** In the order of Table 1. *)

val canonical : string -> string
(** A name as lookups compare it: lower case, [_] read as [-]. *)

val find : string -> entry option
(** Name lookup up to {!canonical} ("fast_fair" finds "fast-fair"). *)

val clamp_ops : entry -> int -> int
(** [clamp_ops e ops] applies the entry's workload cap. *)
