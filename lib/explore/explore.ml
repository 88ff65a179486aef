(* Schedule exploration. See the .mli for the oracle being tested.

   Parallelism: schedule [i]'s result is a pure function of
   (entry, config, i) — the machine, collector and analysis share no
   mutable state across runs except the Obs registry, whose counter cells
   all exist before any worker starts (module-initialization time), so
   concurrent bumps are memory-safe lost-update races that never reach
   the results; span nesting is tracked per domain. Workers return
   compact summaries (fingerprints and location-pair sets), never
   traces; a divergent schedule is re-run deterministically when its
   trace needs dumping. Each schedule runs as a {!Hawkset.Domain_pool}
   task; its {!Hawkset.Pipeline.run} stays on that task's domain. *)

module S = Machine.Sched
module R = Pmapps.Registry

type policy_kind = Random | Round_robin | Delay | Pct | All

let policy_kind_of_string = function
  | "random" -> Ok Random
  | "round-robin" | "round_robin" -> Ok Round_robin
  | "delay" -> Ok Delay
  | "pct" -> Ok Pct
  | "all" -> Ok All
  | s ->
      Error
        (Printf.sprintf
           "unknown policy %S (expected random|round-robin|delay|pct|all)" s)

let policy_kind_to_string = function
  | Random -> "random"
  | Round_robin -> "round-robin"
  | Delay -> "delay"
  | Pct -> "pct"
  | All -> "all"

type config = {
  schedules : int;
  policy : policy_kind;
  depth : int;
  jobs : int;
  seed : int;
  ops : int;
  dump_dir : string option;
  cache : Hawkset.Result_cache.t option;
}

let default_config =
  {
    schedules = 64;
    policy = All;
    depth = 3;
    jobs = 1;
    seed = 42;
    ops = 400;
    dump_dir = None;
    cache = None;
  }

type schedule_result = {
  s_index : int;
  s_policy : string;
  s_sched_seed : int;
  s_events : int;
  s_fingerprint : string;
  s_canonical : (string * string) list;
  s_observed : (string * string) list;
  s_racy : (string * string) list;
  s_error : string option;
}

type divergence = {
  d_index : int;
  d_missing : (string * string) list;
  d_extra : (string * string) list;
  d_base_fixture : string option;
  d_fixture : string option;
}

type bug_hits = {
  b_id : int;
  b_desc : string;
  b_hawkset : int;
  b_pmrace : int;
}

type t = {
  x_app : string;
  x_config : config;
  x_results : schedule_result list;
  x_baseline : (string * string) list;
  x_divergences : divergence list;
  x_errors : int;
  x_distinct_traces : int;
  x_report_sets : int;
  x_racing_pairs : int;
  x_observed_pairs : int;
  x_bug_hits : bug_hits list;
  x_seconds : float;
}

(* Coverage counters, registered at module initialization so worker-side
   registry lookups never allocate a table entry. *)
let obs_schedules = Obs.Registry.counter "explore.schedules"
let obs_errors = Obs.Registry.counter "explore.schedule_errors"
let obs_divergences = Obs.Registry.counter "explore.divergences"
let obs_distinct = Obs.Registry.counter "explore.distinct_traces"
let obs_report_sets = Obs.Registry.counter "explore.report_sets"
let obs_pairs = Obs.Registry.counter "explore.racing_pairs"
let obs_observed = Obs.Registry.counter "explore.observed_pairs"

let delay_policy = S.Delay_injection { probability = 0.05; duration = 40 }

(* Schedule [i]'s policy. [All] spends schedule 0 on the one
   deterministic round-robin interleaving and cycles the rest through
   the three randomized families, so every family contributes whatever
   the sweep size. *)
let policy_of config i =
  match config.policy with
  | Random -> S.Random_interleave
  | Round_robin -> S.Round_robin
  | Delay -> delay_policy
  | Pct -> S.Pct { depth = config.depth }
  | All ->
      if i = 0 then S.Round_robin
      else (
        match (i - 1) mod 3 with
        | 0 -> S.Random_interleave
        | 1 -> S.Pct { depth = config.depth }
        | _ -> delay_policy)

let policy_name config i =
  match policy_of config i with
  | S.Random_interleave -> "random"
  | S.Round_robin -> "round-robin"
  | S.Delay_injection { probability; duration } ->
      Printf.sprintf "delay(p=%g,d=%d)" probability duration
  | S.Targeted_delay _ -> "targeted-delay"
  | S.Scripted _ -> "scripted"
  | S.Pct { depth } -> Printf.sprintf "pct(depth=%d)" depth

(* The scheduler seed of schedule [i]: any deterministic injection of
   the index works; the prime stride just decorrelates neighbours. *)
let sched_seed_of config i = config.seed + 0x10000 + (7919 * i)

let pairs_of obs =
  List.sort_uniq compare
    (List.map
       (fun (o : S.observation) ->
         ( Trace.Site.location o.S.obs_store_site,
           Trace.Site.location o.S.obs_load_site ))
       obs)

(* Everything observe mode saw — the PMRace baseline's signal. *)
let observed_pairs (report : S.report) = pairs_of report.S.observations

(* Only the lock-free subset is in scope for the lockset analysis
   (Definition 1), so only these feed the dominance check. *)
let racy_pairs (report : S.report) =
  pairs_of (List.filter (fun (o : S.observation) -> o.S.obs_racy)
      report.S.observations)

let run_schedule (entry : R.entry) config ~ops i =
  let sched_seed = sched_seed_of config i in
  let name = policy_name config i in
  match
    entry.R.run ~seed:config.seed ~sched_seed ~policy:(policy_of config i)
      ~observe:true ~ops ()
  with
  | report ->
      let trace = report.S.trace in
      let fp = Trace.Trace_io.fingerprint trace in
      (* Stage 2+3 is a pure function of the trace (the determinism half
         of the oracle), so a fingerprint already in the cache skips the
         analysis entirely. Workers consult the cache concurrently; two
         racing on a brand-new fingerprint at worst both analyse it
         (first insert wins, entries are identical). *)
      let analysed, _ =
        Hawkset.Result_cache.run_cached ?cache:config.cache
          ~config:Hawkset.Pipeline.default
          (Hawkset.Result_cache.Trace trace)
      in
      {
        s_index = i;
        s_policy = name;
        s_sched_seed = sched_seed;
        s_events = report.S.event_count;
        s_fingerprint = fp;
        s_canonical = analysed.Hawkset.Result_cache.e_canonical;
        s_observed = observed_pairs report;
        s_racy = racy_pairs report;
        s_error = None;
      }
  | exception e ->
      {
        s_index = i;
        s_policy = name;
        s_sched_seed = sched_seed;
        s_events = 0;
        s_fingerprint = "-";
        s_canonical = [];
        s_observed = [];
        s_racy = [];
        s_error = Some (Printexc.to_string e);
      }

(* Re-execute one schedule and save its (trailer-checksummed) trace —
   only used for divergence fixtures, so the extra run is rare. *)
let dump_schedule (entry : R.entry) config ~ops i path =
  match
    entry.R.run ~seed:config.seed ~sched_seed:(sched_seed_of config i)
      ~policy:(policy_of config i) ~observe:true ~ops ()
  with
  | report ->
      Trace.Trace_io.save path report.S.trace;
      Some path
  | exception _ -> None

let save_schedule ?(config = default_config) (entry : R.entry) ~index path =
  let ops = R.clamp_ops entry config.ops in
  dump_schedule entry config ~ops index path

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let hits pairs ~stores ~loads =
  List.exists (fun (s, l) -> List.mem s stores && List.mem l loads) pairs

(* Cap on dumped divergent traces per app: the first pair is the golden
   fixture; a systematically unstable app would otherwise fill the disk
   with near-identical evidence. *)
let max_dumps = 2

let run ?(config = default_config) (entry : R.entry) =
  let t0 = Unix.gettimeofday () in
  let schedules = max 1 config.schedules in
  let ops = R.clamp_ops entry config.ops in
  let jobs = min (max 1 config.jobs) schedules in
  (* Contiguous index chunks, one per slot; concatenating in chunk order
     restores schedule order, so the merged list is the same whatever
     [jobs] is. One chunk runs inline: the sequential run. *)
  let chunk k =
    let lo = schedules * k / jobs and hi = schedules * (k + 1) / jobs in
    fun () ->
      List.init (hi - lo) (fun j -> run_schedule entry config ~ops (lo + j))
  in
  let results =
    Hawkset.Domain_pool.map (Hawkset.Domain_pool.global ()) (Array.init jobs chunk)
    |> Array.to_list
    |> List.concat_map (function Ok rows -> rows | Error e -> raise e)
  in
  let ok = List.filter (fun r -> r.s_error = None) results in
  let errors = List.length results - List.length ok in
  (* The stability oracle (see the .mli). Raw report sets legitimately
     vary with dynamic coverage, so equality across schedules is not
     required. What is required, per schedule:
       - dominance: every directly-observed inconsistency (the PMRace
         signal) appears in the lockset report of that same trace —
         no interleaving teaches observation-based detection anything
         the one-trace analysis missed;
       - determinism: schedules with the same trace fingerprint report
         the same canonical set — the analysis itself is a pure
         function of the trace. *)
  let baseline =
    List.sort_uniq compare (List.concat_map (fun r -> r.s_canonical) ok)
  in
  (* Representative report per fingerprint: the first (lowest-index)
     schedule that produced that trace. *)
  let rep_by_fp = Hashtbl.create 64 in
  List.iter
    (fun r ->
      if not (Hashtbl.mem rep_by_fp r.s_fingerprint) then
        Hashtbl.add rep_by_fp r.s_fingerprint r)
    ok;
  let base_index = match ok with [] -> -1 | r :: _ -> r.s_index in
  (* Dump the reference trace (first schedule) lazily, once, on the
     first divergence. *)
  let base_fixture = ref None in
  let dumped = ref 0 in
  let divergences =
    List.filter_map
      (fun r ->
          (* Dominance violations: lock-free observed pairs the analysis
             of this very trace failed to report. Lock-protected
             observations are excluded — a common lock orders the pair
             under Definition 1, so the lockset analysis rightly stays
             silent where observation-based detection still fires. *)
          let missing =
            List.filter
              (fun p -> not (List.mem p r.s_canonical))
              r.s_racy
          in
          (* Determinism violations: disagreement with the fingerprint
             twin's report — pairs present in exactly one of the two. *)
          let extra =
            match Hashtbl.find_opt rep_by_fp r.s_fingerprint with
            | Some rep when rep.s_index <> r.s_index ->
                let m, e =
                  Hawkset.Report.canonical_diff ~expected:rep.s_canonical
                    ~actual:r.s_canonical
                in
                m @ e
            | Some _ | None -> []
          in
          if missing = [] && extra = [] then None
          else begin
            let d_base_fixture, d_fixture =
              match config.dump_dir with
              | Some dir when !dumped < max_dumps ->
                  incr dumped;
                  ensure_dir dir;
                  if !base_fixture = None && base_index >= 0 then
                    base_fixture :=
                      dump_schedule entry config ~ops base_index
                        (Filename.concat dir
                           (Printf.sprintf "explore-%s-base.trace"
                              entry.R.reg_name));
                  ( !base_fixture,
                    dump_schedule entry config ~ops r.s_index
                      (Filename.concat dir
                         (Printf.sprintf "explore-%s-div-%03d.trace"
                            entry.R.reg_name r.s_index)) )
              | Some _ | None -> (None, None)
            in
            Some
              {
                d_index = r.s_index;
                d_missing = missing;
                d_extra = extra;
                d_base_fixture;
                d_fixture;
              }
          end)
      ok
  in
  let distinct_traces =
    List.length
      (List.sort_uniq String.compare (List.map (fun r -> r.s_fingerprint) ok))
  in
  (* Coverage jitter: how many distinct canonical report sets the sweep
     produced. 1 means byte-stable reports; larger values quantify how
     much dynamic coverage moved across interleavings. *)
  let report_sets =
    List.length (List.sort_uniq compare (List.map (fun r -> r.s_canonical) ok))
  in
  let union proj =
    List.sort_uniq compare (List.concat_map proj ok)
  in
  let racing_pairs = union (fun r -> r.s_canonical) in
  let observed = union (fun r -> r.s_observed) in
  let bug_hits =
    List.map
      (fun (b : Pmapps.Ground_truth.bug) ->
        let stores = b.Pmapps.Ground_truth.gt_store_locs in
        let loads = b.Pmapps.Ground_truth.gt_load_locs in
        let count proj =
          List.length
            (List.filter (fun r -> hits (proj r) ~stores ~loads) ok)
        in
        {
          b_id = b.Pmapps.Ground_truth.gt_id;
          b_desc = b.Pmapps.Ground_truth.gt_desc;
          b_hawkset = count (fun r -> r.s_canonical);
          b_pmrace = count (fun r -> r.s_observed);
        })
      (List.sort
         (fun (a : Pmapps.Ground_truth.bug) b ->
           compare a.Pmapps.Ground_truth.gt_id b.Pmapps.Ground_truth.gt_id)
         entry.R.bugs)
  in
  (* Mirror the coverage into the global registry (coordinator-side, so
     the bumps are as deterministic as the results themselves). *)
  Obs.Metric.add obs_schedules (List.length results);
  Obs.Metric.add obs_errors errors;
  Obs.Metric.add obs_divergences (List.length divergences);
  Obs.Metric.add obs_distinct distinct_traces;
  Obs.Metric.add obs_report_sets report_sets;
  Obs.Metric.add obs_pairs (List.length racing_pairs);
  Obs.Metric.add obs_observed (List.length observed);
  {
    x_app = entry.R.reg_name;
    x_config = config;
    x_results = results;
    x_baseline = baseline;
    x_divergences = divergences;
    x_errors = errors;
    x_distinct_traces = distinct_traces;
    x_report_sets = report_sets;
    x_racing_pairs = List.length racing_pairs;
    x_observed_pairs = List.length observed;
    x_bug_hits = bug_hits;
    x_seconds = Unix.gettimeofday () -. t0;
  }

let stable t = t.x_divergences = [] && t.x_errors = 0

let counters ts =
  let sum proj = List.fold_left (fun acc t -> acc + proj t) 0 ts in
  [
    ("explore.distinct_traces", sum (fun t -> t.x_distinct_traces));
    ("explore.divergences", sum (fun t -> List.length t.x_divergences));
    ("explore.observed_pairs", sum (fun t -> t.x_observed_pairs));
    ("explore.racing_pairs", sum (fun t -> t.x_racing_pairs));
    ("explore.report_sets", sum (fun t -> t.x_report_sets));
    ("explore.schedule_errors", sum (fun t -> t.x_errors));
    ("explore.schedules", sum (fun t -> List.length t.x_results));
  ]

let manifest ts =
  let config = match ts with [] -> default_config | t :: _ -> t.x_config in
  let seconds = List.fold_left (fun acc t -> acc +. t.x_seconds) 0.0 ts in
  let schedules =
    List.fold_left (fun acc t -> acc + List.length t.x_results) 0 ts
  in
  let labels =
    [
      ("apps", String.concat "," (List.map (fun t -> t.x_app) ts));
      ("depth", string_of_int config.depth);
      ("detector", "explore");
      ("jobs", string_of_int config.jobs);
      ("ops", string_of_int config.ops);
      ("policy", policy_kind_to_string config.policy);
      ("schedules", string_of_int config.schedules);
      ("seed", string_of_int config.seed);
    ]
  in
  (* Cache hit/miss splits are schedule-dependent under [jobs > 1] (two
     workers can race on a new fingerprint), so they live here among the
     gauges — never in {!counters}, whose byte-identity across jobs
     values is a tested contract. *)
  let gauges =
    (match config.cache with
    | None -> []
    | Some c ->
        List.map
          (fun (k, v) -> (k, float_of_int v))
          (Hawkset.Result_cache.stats c))
    @ [
        ("explore.schedules_per_sec",
         if seconds > 0.0 then float_of_int schedules /. seconds else 0.0);
        ("explore.seconds", seconds);
      ]
  in
  Obs.Manifest.make ~labels ~counters:(counters ts) ~gauges ()
