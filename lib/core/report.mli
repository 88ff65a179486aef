(** Persistency-induced race reports.

    A report identifies a (store, load) pair of PM sites that can execute
    concurrently with the stored value not guaranteed persisted at load
    time (Definition 1). Reports are aggregated by site pair — the same
    granularity as Table 2 — with occurrence counts and backtraces. *)

type witness = {
  wt_store_locks : int list;  (** Lock ids held at the store. *)
  wt_eff_locks : int list;
      (** The window's effective lockset (§3.2) — the intersection the
          race test actually used. *)
  wt_load_locks : int list;  (** Lock ids held at the load. *)
  wt_store_vec : int list;  (** Vector clock at the store. *)
  wt_end_vec : int list option;
      (** Vector clock when the window closed; [None] when it never did
          ([Open_at_exit]). *)
  wt_load_vec : int list;  (** Vector clock at the load. *)
}
(** The evidence behind a report: effective locksets and vector clocks of
    the first witnessing (window, load) pair, exactly as the analysis
    kernel saw them. Deterministic for a fixed seed, so it serializes
    into [to_json] without breaking report identity across runs. *)

type race = {
  store_site : Trace.Site.t;
  load_site : Trace.Site.t;
  store_tid : int;  (** Thread ids of one witnessing pair. *)
  load_tid : int;
  addr : int;  (** Address of one witnessing pair. *)
  window_end : Access.end_kind;
      (** How the witnessing store's window ended — [Open_at_exit] means a
          missing persist, the others a persist/overwrite outside the
          common atomic section. *)
  occurrences : int;  (** Distinct witnessing pairs merged into this report. *)
  witness : witness option;
      (** Provenance of the first witnessing pair ([None] for detectors
          that don't record it, e.g. baselines). *)
}

type t = race list

val empty : t

val add :
  ?witness:(unit -> witness) ->
  t ->
  store_site:Trace.Site.t ->
  load_site:Trace.Site.t ->
  store_tid:int ->
  load_tid:int ->
  addr:int ->
  window_end:Access.end_kind ->
  t
(** Adds a witnessing pair, merging with an existing report for the same
    (store location, load location). The [witness] thunk is forced only
    when the pair creates a new report (first witness wins on merge), so
    repeated occurrences cost nothing extra. *)

val count : t -> int
(** Number of distinct site-pair reports. *)

val sorted : t -> race list
(** Reports ordered by store location then load location. *)

val mem : t -> store_loc:string -> load_loc:string -> bool
(** Does the report set contain this ["file:line"] pair? Used to match
    against the ground-truth bug registry. *)

val canonical : t -> (string * string) list
(** The schedule-insensitive projection: sorted distinct
    [(store location, load location)] pairs, each appearing once.
    Occurrence counts, thread ids, addresses and witnesses vary across
    interleavings; this set is what the stability oracle compares. *)

val canonical_diff :
  expected:(string * string) list ->
  actual:(string * string) list ->
  (string * string) list * (string * string) list
(** [(missing, extra)]: pairs of [expected] absent from [actual], and
    pairs of [actual] absent from [expected]. Both empty iff the
    canonical sets agree. *)

val pp_race : Format.formatter -> race -> unit

val pp_witness : Format.formatter -> witness -> unit
(** Human-readable witness: locksets as [{...}], vector clocks as
    [(...)]; an open window end prints as "open (never persisted)". *)

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** Machine-readable reports: a JSON array of objects with
    [store]/[load] site objects ([file], [line], [frames]), thread ids,
    an example address, the window-end kind, the occurrence count and a
    [witness] object (locksets and vector clocks of the first witnessing
    pair; [null] when not recorded). *)
