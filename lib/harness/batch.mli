(** Presentation layer for {!Supervise} batches: the degradation table
    and summary line rendered by [hawkset batch]. *)

val degradation_table : Supervise.batch -> string
(** One row per terminal job — id, app, seed, policy, status, attempts,
    failure history, truncations, replayed — under a titled separator. *)

val summary_line : Supervise.batch -> string
(** One-line batch verdict, e.g.
    ["batch: 6 jobs, 4 ok (2 retried, 1 truncated), 1 failed, 1
    quarantined [interrupted]"]. *)

val failed : Supervise.batch -> bool
(** True when any job gave up or was quarantined, or the batch was
    interrupted before its last job — the CLI's exit-3 condition. *)
