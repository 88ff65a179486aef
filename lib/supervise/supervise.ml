(* Supervised batch execution. See the .mli for the contract.

   Structure: [run] splits the declared job list into per-app chains and
   walks each chain in order, executing each job under [process] —
   injected faults, budget guard, bounded retries with deterministic
   backoff, circuit breaker — and records every step in the (optional)
   journal as it happens. The chains are drained by the domain pool at
   every width; width 1 drains them inline, one after another. Resume is
   the same walk with a prior-state table loaded from the journal:
   terminal jobs replay their recorded status (including the exact
   report bytes), partial jobs continue from their next attempt. Because
   the walk, the retry policy and the jobs themselves are deterministic,
   the merged report of a killed-and-resumed batch is byte-identical to
   an uninterrupted one, at any width. *)

module S = Machine.Sched
module R = Pmapps.Registry
module J = Trace.Journal

type failure = Timeout | Oom | Corrupt_trace | Pipeline_exn | Worker_lost

let failure_to_string = function
  | Timeout -> "timeout"
  | Oom -> "oom"
  | Corrupt_trace -> "corrupt-trace"
  | Pipeline_exn -> "pipeline-exn"
  | Worker_lost -> "worker-lost"

let failure_of_string = function
  | "timeout" -> Ok Timeout
  | "oom" -> Ok Oom
  | "corrupt-trace" | "corrupt_trace" -> Ok Corrupt_trace
  | "pipeline-exn" | "pipeline_exn" -> Ok Pipeline_exn
  | "worker-lost" | "worker_lost" -> Ok Worker_lost
  | s ->
      Error
        (Printf.sprintf
           "unknown failure class %S (expected \
            timeout|oom|corrupt-trace|pipeline-exn|worker-lost)"
           s)

let classify_exn = function
  | Obs.Budget.Exceeded (`Wall, _) -> Timeout
  | Obs.Budget.Exceeded (`Heap, _) -> Oom
  | Trace.Trace_io.Parse_error _ -> Corrupt_trace
  | Hawkset.Domain_pool.Worker_lost _ -> Worker_lost
  | _ -> Pipeline_exn

type job = {
  j_id : int;
  j_app : string;
  j_seed : int;
  j_policy : string;
  j_ops : int;
}

let policy_of_string = function
  | "round-robin" | "round_robin" -> Ok S.Round_robin
  | "random" -> Ok S.Random_interleave
  | "delay" -> Ok (S.Delay_injection { probability = 0.05; duration = 40 })
  | "pct" -> Ok (S.Pct { depth = 3 })
  | s ->
      Error
        (Printf.sprintf
           "unknown policy %S (expected round-robin|random|delay|pct)" s)

let jobs_of ~apps ~seeds ~policies ~ops =
  let unknown_app = List.find_opt (fun a -> R.find a = None) apps in
  let bad_policy =
    List.find_map
      (fun p -> match policy_of_string p with Ok _ -> None | Error m -> Some m)
      policies
  in
  match (unknown_app, bad_policy) with
  | Some a, _ -> Error (Printf.sprintf "unknown application %S (try list-apps)" a)
  | None, Some m -> Error m
  | None, None ->
      let id = ref 0 in
      Ok
        (List.concat_map
           (fun app ->
             List.concat_map
               (fun seed ->
                 List.map
                   (fun pol ->
                     let j =
                       {
                         j_id = !id;
                         j_app = app;
                         j_seed = seed;
                         j_policy = pol;
                         j_ops = ops;
                       }
                     in
                     incr id;
                     j)
                   policies)
               seeds)
           apps)

type fault = { f_job : int; f_class : failure; f_times : int }

let fault_of_string s =
  let parse job cls times =
    match (int_of_string_opt job, failure_of_string cls, times) with
    | Some j, Ok c, Some n when j >= 0 && n >= 1 ->
        Ok { f_job = j; f_class = c; f_times = n }
    | _ ->
        Error
          (Printf.sprintf
             "bad fault %S (expected JOB:CLASS[:COUNT], e.g. 2:timeout or \
              0:oom:99)"
             s)
  in
  match String.split_on_char ':' s with
  | [ job; cls ] -> parse job cls (Some 1)
  | [ job; cls; n ] -> parse job cls (int_of_string_opt n)
  | _ ->
      Error
        (Printf.sprintf "bad fault %S (expected JOB:CLASS[:COUNT])" s)

(* The real exception of each class, raised before any work runs: the
   classification, retry, backoff and journaling paths under test are
   the production ones. *)
let inject_exn = function
  | Timeout -> Obs.Budget.Exceeded (`Wall, 0.0)
  | Oom -> Obs.Budget.Exceeded (`Heap, 0.0)
  | Corrupt_trace -> Trace.Trace_io.Parse_error (0, "injected fault: corrupt trace")
  | Worker_lost -> Hawkset.Domain_pool.Worker_lost 1
  | Pipeline_exn -> Failure "injected fault: pipeline exception"

type config = {
  attempts : int;
  backoff_ms : int;
  deadline_s : float option;
  max_heap_mb : float option;
  breaker_threshold : int;
  job_workers : int;
  faults : fault list;
  stop_after : int option;
}

let default_config =
  {
    attempts = 3;
    backoff_ms = 50;
    deadline_s = None;
    max_heap_mb = None;
    breaker_threshold = 2;
    job_workers = 1;
    faults = [];
    stop_after = None;
  }

type status =
  | Done of {
      d_attempts : int;
      d_truncations : int;
      d_failures : failure list;
      d_races_json : string;
    }
  | Gave_up of { g_attempts : int; g_failures : failure list }
  | Quarantined

let status_string = function
  | Done { d_truncations = n; _ } when n > 0 -> "ok-truncated"
  | Done { d_failures = _ :: _; _ } -> "ok-retried"
  | Done _ -> "ok"
  | Gave_up _ -> "failed"
  | Quarantined -> "quarantined"

type job_result = { jr_job : job; jr_status : status; jr_replayed : bool }

type batch = {
  b_fingerprint : string;
  b_config : config;
  b_jobs : job list;
  b_results : job_result list;
  b_interrupted : bool;
}

exception Resume_mismatch of { expected : string; found : string option }

(* The backoff jitter's PRNG seed. The fingerprint still spells it
   [bseed=42], so journals from before it was fixed keep resuming. *)
let backoff_seed = 42

(* Everything that shapes a job's terminal state goes into the
   fingerprint — [stop_after] deliberately not: a killed batch and its
   uninterrupted twin are the same declaration. [job_workers] is also
   excluded: job-level concurrency changes only wall-clock time (the
   merged report is byte-identical at any width), so a batch journaled
   at one width may be resumed at another. *)
let fingerprint config jobs =
  let b = Buffer.create 256 in
  List.iter
    (fun j ->
      Buffer.add_string b
        (Printf.sprintf "%d %s %d %s %d;" j.j_id j.j_app j.j_seed j.j_policy
           j.j_ops))
    jobs;
  Buffer.add_string b
    (Printf.sprintf "attempts=%d;backoff=%d;bseed=%d;breaker=%d;"
       config.attempts config.backoff_ms backoff_seed config.breaker_threshold);
  (match config.deadline_s with
  | Some d -> Buffer.add_string b (Printf.sprintf "deadline=%g;" d)
  | None -> ());
  (match config.max_heap_mb with
  | Some m -> Buffer.add_string b (Printf.sprintf "heap=%g;" m)
  | None -> ());
  List.iter
    (fun f ->
      Buffer.add_string b
        (Printf.sprintf "fault=%d:%s:%d;" f.f_job
           (failure_to_string f.f_class)
           f.f_times))
    config.faults;
  J.fnv_hex (Buffer.contents b)

let backoff_delay_ms config ~job ~attempt =
  if config.backoff_ms <= 0 then 0
  else begin
    let exponent = min (max 0 (attempt - 1)) 16 in
    let base = config.backoff_ms * (1 lsl exponent) in
    let prng =
      Machine.Prng.create
        (backoff_seed lxor (job * 0x9e3779b9) lxor (attempt * 0x85ebca6))
    in
    base + Machine.Prng.int prng config.backoff_ms
  end

(* --- observability ---------------------------------------------------- *)

let tl_attempt = Obs.Timeline.name "supervise.attempt"
let tl_retry = Obs.Timeline.name "supervise.retry"
let tl_replay = Obs.Timeline.name "supervise.replay"
let tl_quarantine = Obs.Timeline.name "supervise.quarantine"

(* --- one attempt ------------------------------------------------------ *)

(* The canonical key text of a parsed policy, parameters included: two
   spellings of one policy share a key, two parameterisations do not.
   Exhaustive on purpose — a new policy must say how it is keyed. *)
let policy_key = function
  | S.Random_interleave -> "random"
  | S.Round_robin -> "round-robin"
  | S.Delay_injection { probability; duration } ->
      Printf.sprintf "delay(p=%h,d=%d)" probability duration
  | S.Targeted_delay { store_loc; duration } ->
      Printf.sprintf "targeted-delay(loc=%S,d=%d)" store_loc duration
  | S.Scripted choices ->
      Printf.sprintf "scripted(%s)"
        (String.concat "," (Array.to_list (Array.map string_of_int choices)))
  | S.Pct { depth } -> Printf.sprintf "pct(depth=%d)" depth

(* A job as a result-cache source: everything its trace is a function
   of, and the thunk that executes it. The scheduler seed is the job
   seed ([entry.run] gets no [sched_seed]); it is spelled out so the key
   stays honest if that ever changes. *)
let job_source (job : job) =
  let entry =
    match R.find job.j_app with
    | Some e -> e
    | None -> invalid_arg ("Supervise: unknown application " ^ job.j_app)
  in
  let policy =
    match policy_of_string job.j_policy with
    | Ok p -> p
    | Error msg -> invalid_arg ("Supervise: " ^ msg)
  in
  let ops = R.clamp_ops entry job.j_ops in
  Hawkset.Result_cache.Job
    {
      inputs =
        Printf.sprintf "app=%s;ops=%d;seed=%d;sched_seed=%d;policy=%s"
          entry.R.reg_name ops job.j_seed job.j_seed (policy_key policy);
      execute =
        (fun () -> (entry.R.run ~seed:job.j_seed ~policy ~ops ()).S.trace);
    }

(* One attempt's product: the report JSON bytes and the truncation count
   — all a terminal [Done] needs, whether the analysis ran or a cache
   hit substituted the recorded bytes of an identical job. A hit is
   keyed on the job's inputs, so it neither executes the app nor
   fingerprints a trace, and runs outside the budget guard. *)
let run_attempt ?cache config (job : job) ~attempt =
  (match
     List.find_opt
       (fun f -> f.f_job = job.j_id && attempt <= f.f_times)
       config.faults
   with
  | Some f -> raise (inject_exn f.f_class)
  | None -> ());
  (* The wall budget also feeds the pipeline's cooperative stage
     deadlines: the stages yield at their polling points well before
     the Gc-alarm guard has to fire. *)
  let pcfg =
    {
      Hawkset.Pipeline.default with
      collect_deadline_s = config.deadline_s;
      analyse_deadline_s = config.deadline_s;
    }
  in
  let e, truncs =
    Hawkset.Result_cache.run_cached ?cache
      ~guard:
        (Obs.Budget.with_guard ?wall_s:config.deadline_s
           ?heap_mb:config.max_heap_mb)
      ~config:pcfg (job_source job)
  in
  (e.Hawkset.Result_cache.e_races_json, truncs)

(* --- journal records -------------------------------------------------- *)

(* Prior state of one job, reconstructed from the journal. *)
type resume_state = { rs_fails : failure list; rs_terminal : status option }

let restore path =
  let loaded = J.load path in
  let fp = ref None in
  let tbl : (int, resume_state) Hashtbl.t = Hashtbl.create 32 in
  let state id =
    match Hashtbl.find_opt tbl id with
    | Some s -> s
    | None -> { rs_fails = []; rs_terminal = None }
  in
  List.iter
    (fun (r : J.record) ->
      match (r.J.tag, r.J.fields) with
      | "batch", f :: _ -> fp := Some f
      | "start", _ -> ()
      | "fail", [ id; _attempt; cls ] -> (
          match (int_of_string_opt id, failure_of_string cls) with
          | Some id, Ok c ->
              let s = state id in
              Hashtbl.replace tbl id { s with rs_fails = s.rs_fails @ [ c ] }
          | _ -> ())
      | "done", [ id; attempts; truncs ] -> (
          match (int_of_string_opt id, r.J.payload) with
          | Some id, Some races ->
              let s = state id in
              Hashtbl.replace tbl id
                {
                  s with
                  rs_terminal =
                    Some
                      (Done
                         {
                           d_attempts =
                             Option.value (int_of_string_opt attempts)
                               ~default:1;
                           d_truncations =
                             Option.value (int_of_string_opt truncs) ~default:0;
                           d_failures = s.rs_fails;
                           d_races_json = races;
                         })
                }
          | _ -> ())
      | "gaveup", [ id; attempts ] -> (
          match int_of_string_opt id with
          | Some id ->
              let s = state id in
              Hashtbl.replace tbl id
                {
                  s with
                  rs_terminal =
                    Some
                      (Gave_up
                         {
                           g_attempts =
                             Option.value (int_of_string_opt attempts)
                               ~default:0;
                           g_failures = s.rs_fails;
                         })
                }
          | None -> ())
      | "quar", [ id ] -> (
          match int_of_string_opt id with
          | Some id ->
              let s = state id in
              Hashtbl.replace tbl id { s with rs_terminal = Some Quarantined }
          | None -> ())
      | _ -> ())
    loaded.J.l_records;
  (!fp, tbl)

(* --- the batch loop --------------------------------------------------- *)

let run ?journal ?(resume = false) ?cache ?(config = default_config) jobs =
  List.iter
    (fun j ->
      if R.find j.j_app = None then
        invalid_arg ("Supervise.run: unknown application " ^ j.j_app);
      match policy_of_string j.j_policy with
      | Ok _ -> ()
      | Error msg -> invalid_arg ("Supervise.run: " ^ msg))
    jobs;
  let fp = fingerprint config jobs in
  let prior, writer =
    match journal with
    | None -> (Hashtbl.create 0, None)
    | Some path ->
        if resume && Sys.file_exists path then begin
          let jfp, tbl = restore path in
          (match jfp with
          | Some f when f = fp -> ()
          | found -> raise (Resume_mismatch { expected = fp; found }));
          (tbl, Some (J.append path))
        end
        else begin
          let w = J.create path in
          J.add w
            {
              J.tag = "batch";
              fields = [ fp; string_of_int (List.length jobs) ];
              payload = None;
            };
          (Hashtbl.create 0, Some w)
        end
  in
  (* Records go straight to the journal as they happen, so a killed
     process keeps even a partial job's failed attempts. The mutex
     orders the writes of concurrent chains; [restore] keys replay by
     job id, so their interleaving is immaterial. *)
  let journal_lock = Mutex.create () in
  let record tag fields payload =
    match writer with
    | Some w ->
        Mutex.lock journal_lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock journal_lock)
          (fun () -> J.add w { J.tag; fields; payload })
    | None -> ()
  in
  (* [app_failures] is the job's app's count of consecutive exhausted
     jobs, which its chain owns. *)
  let process ~app_failures (job : job) =
    match Hashtbl.find_opt prior job.j_id with
    | Some { rs_terminal = Some st; _ } ->
        Obs.Timeline.instant tl_replay ~arg:job.j_id;
        { jr_job = job; jr_status = st; jr_replayed = true }
    | prior_state ->
        let prior_fails =
          match prior_state with Some s -> s.rs_fails | None -> []
        in
        if app_failures >= config.breaker_threshold then begin
          Obs.Timeline.instant tl_quarantine ~arg:job.j_id;
          Obs.Logger.warn ~section:"supervise" (fun () ->
              Printf.sprintf "job %d (%s): quarantined by circuit breaker"
                job.j_id job.j_app);
          record "quar" [ string_of_int job.j_id ] None;
          { jr_job = job; jr_status = Quarantined; jr_replayed = false }
        end
        else begin
          let id = string_of_int job.j_id in
          let failures = ref prior_fails in
          let rec go attempt =
            if attempt > config.attempts then begin
              record "gaveup" [ id; string_of_int config.attempts ] None;
              Gave_up { g_attempts = config.attempts; g_failures = !failures }
            end
            else begin
              record "start" [ id; string_of_int attempt ] None;
              Obs.Timeline.begin_ tl_attempt ~arg:job.j_id;
              let outcome =
                Fun.protect
                  ~finally:(fun () -> Obs.Timeline.end_ tl_attempt ~arg:job.j_id)
                  (fun () ->
                    match
                      Obs.Registry.with_span "job" (fun () ->
                          run_attempt ?cache config job ~attempt)
                    with
                    | r -> Ok r
                    | exception e -> Error e)
              in
              match outcome with
              | Ok (races, truncs) ->
                  record "done"
                    [ id; string_of_int attempt; string_of_int truncs ]
                    (Some races);
                  Done
                    {
                      d_attempts = attempt;
                      d_truncations = truncs;
                      d_failures = !failures;
                      d_races_json = races;
                    }
              | Error e ->
                  let cls = classify_exn e in
                  failures := !failures @ [ cls ];
                  record "fail" [ id; string_of_int attempt; failure_to_string cls ]
                    None;
                  Obs.Logger.warn ~section:"supervise" (fun () ->
                      Printf.sprintf "job %d (%s seed %d %s): attempt %d failed: %s (%s)"
                        job.j_id job.j_app job.j_seed job.j_policy attempt
                        (failure_to_string cls) (Printexc.to_string e));
                  if attempt >= config.attempts then go (attempt + 1)
                  else begin
                    Obs.Timeline.instant tl_retry ~arg:job.j_id;
                    let delay =
                      backoff_delay_ms config ~job:job.j_id ~attempt
                    in
                    if delay > 0 then Unix.sleepf (float_of_int delay /. 1000.0);
                    go (attempt + 1)
                  end
            end
          in
          let st = go (List.length prior_fails + 1) in
          { jr_job = job; jr_status = st; jr_replayed = false }
        end
  in
  (* The unit of scheduling is the per-app *chain*: that app's jobs in
     declared order, chains in first-seen app order. The breaker counts
     consecutive exhausted jobs of one app, so each chain owns its count
     and every job's terminal status is independent of the width — which
     is what makes the merged report byte-identical at any width. Up to
     [job_workers] chains are in flight on the domain pool; at width 1
     the pool drains them inline, in order, on this domain. *)
  let run_chains () =
    let chains =
      let tbl : (string, (int * job) list ref) Hashtbl.t = Hashtbl.create 8 in
      let order = ref [] in
      List.iteri
        (fun i j ->
          match Hashtbl.find_opt tbl j.j_app with
          | Some r -> r := (i, j) :: !r
          | None ->
              let r = ref [ (i, j) ] in
              Hashtbl.add tbl j.j_app r;
              order := r :: !order)
        jobs;
      List.rev_map (fun r -> List.rev !r) !order
    in
    let results = Array.make (List.length jobs) None in
    let processed = Atomic.make 0 in
    let stop = Atomic.make false in
    let interrupted = Atomic.make false in
    let limit =
      match config.stop_after with Some n -> n | None -> max_int
    in
    let chain_task chain () =
      (* Reset by a success, never by a quarantined job (once open, the
         breaker stays open). *)
      let fails = ref 0 in
      try
        List.iter
          (fun (i, job) ->
            if Atomic.get stop || Atomic.get processed >= limit then begin
              (* [stop_after] is a chaos hook: the check is racy across
                 concurrent chains (a few extra jobs may finish), but any
                 skipped job marks the batch interrupted, and
                 resume-is-replay makes the merged report independent of
                 where the cut landed. *)
              Atomic.set interrupted true;
              Atomic.set stop true
            end
            else begin
              let res = process ~app_failures:!fails job in
              Atomic.incr processed;
              (match res.jr_status with
              | Gave_up _ -> incr fails
              | Done _ -> fails := 0
              | Quarantined -> ());
              results.(i) <- Some res
            end)
          chain
      with e ->
        (* Only journal I/O escapes [process]: start no further job. *)
        Atomic.set stop true;
        raise e
    in
    Hawkset.Domain_pool.run_queue
      (Hawkset.Domain_pool.global ())
      ~workers:config.job_workers
      (Array.of_list (List.map chain_task chains))
    |> Array.iter (function Error e -> raise e | Ok () -> ());
    ( Array.to_list results |> List.filter_map Fun.id,
      Atomic.get interrupted )
  in
  let results, interrupted =
    Fun.protect
      ~finally:(fun () -> match writer with Some w -> J.close w | None -> ())
      (fun () ->
        Obs.Registry.with_span "batch" run_chains)
  in
  {
    b_fingerprint = fp;
    b_config = config;
    b_jobs = jobs;
    b_results = results;
    b_interrupted = interrupted;
  }

(* --- merged report and summaries -------------------------------------- *)

let attempts_of = function
  | Done d -> d.d_attempts
  | Gave_up g -> g.g_attempts
  | Quarantined -> 0

let failures_of = function
  | Done d -> d.d_failures
  | Gave_up g -> g.g_failures
  | Quarantined -> []

(* [replayed] stays out of this list (and so out of [merged_json]): it is
   a property of the process, not the declaration, and would break the
   byte-identical-resume contract. It lives in {!counters} instead. *)
let summary b =
  let res = b.b_results in
  let count p = List.length (List.filter p res) in
  let is s jr = status_string jr.jr_status = s in
  let sum f = List.fold_left (fun acc jr -> acc + f jr) 0 res in
  [
    ("jobs", List.length res);
    ("ok", count (fun jr -> match jr.jr_status with Done _ -> true | _ -> false));
    ("ok_clean", count (is "ok"));
    ("ok_retried", count (is "ok-retried"));
    ("ok_truncated", count (is "ok-truncated"));
    ("failed", count (is "failed"));
    ("quarantined", count (is "quarantined"));
    ("attempts", sum (fun jr -> attempts_of jr.jr_status));
    ("retries", sum (fun jr -> max 0 (attempts_of jr.jr_status - 1)));
  ]

let merged_json b =
  let module Json = Obs.Json in
  let job_json (jr : job_result) =
    let j = jr.jr_job in
    let races_json =
      match jr.jr_status with Done d -> d.d_races_json | _ -> "null"
    in
    Json.obj
      [
        ("id", Json.int j.j_id);
        ("app", Json.str j.j_app);
        ("seed", Json.int j.j_seed);
        ("policy", Json.str j.j_policy);
        ("ops", Json.int j.j_ops);
        ("status", Json.str (status_string jr.jr_status));
        ("attempts", Json.int (attempts_of jr.jr_status));
        ( "truncations",
          Json.int
            (match jr.jr_status with Done d -> d.d_truncations | _ -> 0) );
        ( "failures",
          Json.arr
            (List.map
               (fun c -> Json.str (failure_to_string c))
               (failures_of jr.jr_status)) );
        ("races", races_json);
      ]
  in
  Json.obj
    [
      ("schema", Json.str "hawkset.batch_report/2");
      ("fingerprint", Json.str b.b_fingerprint);
      ("jobs", Json.arr (List.map job_json b.b_results));
      ( "summary",
        Json.obj (List.map (fun (k, v) -> (k, Json.int v)) (summary b)) );
    ]

let counters b =
  let res = b.b_results in
  let count p = List.length (List.filter p res) in
  let sum f = List.fold_left (fun acc jr -> acc + f jr) 0 res in
  let class_count c =
    sum (fun jr ->
        List.length (List.filter (fun x -> x = c) (failures_of jr.jr_status)))
  in
  [
    ("supervise.attempts", sum (fun jr -> attempts_of jr.jr_status));
    ("supervise.failures.corrupt_trace", class_count Corrupt_trace);
    ("supervise.failures.oom", class_count Oom);
    ("supervise.failures.pipeline_exn", class_count Pipeline_exn);
    ("supervise.failures.timeout", class_count Timeout);
    ("supervise.failures.worker_lost", class_count Worker_lost);
    ( "supervise.gave_up",
      count (fun jr ->
          match jr.jr_status with Gave_up _ -> true | _ -> false) );
    ("supervise.jobs", List.length res);
    ( "supervise.quarantined",
      count (fun jr -> jr.jr_status = Quarantined) );
    ("supervise.replayed", count (fun jr -> jr.jr_replayed));
    ("supervise.retries", sum (fun jr -> max 0 (attempts_of jr.jr_status - 1)));
  ]

let manifest b =
  let uniq proj =
    String.concat ","
      (List.sort_uniq String.compare (List.map proj b.b_jobs))
  in
  Obs.Manifest.make
    ~labels:
      [
        ("apps", uniq (fun j -> j.j_app));
        ("attempts", string_of_int b.b_config.attempts);
        ("breaker", string_of_int b.b_config.breaker_threshold);
        ("fingerprint", b.b_fingerprint);
        ("job_workers", string_of_int b.b_config.job_workers);
        ("policies", uniq (fun j -> j.j_policy));
        ("seeds", uniq (fun j -> string_of_int j.j_seed));
      ]
    ~counters:(counters b)
    ~gauges:
      [ ("supervise.interrupted", if b.b_interrupted then 1.0 else 0.0) ]
    ()
