(* Tests for the supervision layer: the journal substrate, the budget
   guard, failure classification, deterministic backoff, the retry /
   degradation / circuit-breaker state machine, and the crash-safe
   resume contract (kill + resume => byte-identical merged report). *)

let with_tmp f =
  let path = Filename.temp_file "hawkset_supervise" ".jnl" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

module Journal_tests = struct
  let record tag fields payload = { Trace.Journal.tag; fields; payload }

  let sample =
    [
      record "batch" [ "deadbeef"; "3" ] None;
      record "start" [ "0"; "1" ] None;
      record "done" [ "0"; "1"; "0" ] (Some "[{\"a\": 1}]\nline two");
      record "fail" [ "1"; "1"; "timeout" ] None;
    ]

  let write path records =
    let w = Trace.Journal.create path in
    List.iter (Trace.Journal.add w) records;
    Trace.Journal.close w

  let roundtrip () =
    with_tmp (fun path ->
        write path sample;
        let l = Trace.Journal.load path in
        Alcotest.(check bool) "complete" true l.Trace.Journal.l_complete;
        Alcotest.(check bool) "no error" true
          (l.Trace.Journal.l_first_error = None);
        Alcotest.(check int) "count" (List.length sample)
          (List.length l.Trace.Journal.l_records);
        List.iter2
          (fun (a : Trace.Journal.record) (b : Trace.Journal.record) ->
            Alcotest.(check string) "tag" a.Trace.Journal.tag b.Trace.Journal.tag;
            Alcotest.(check (list string))
              "fields" a.Trace.Journal.fields b.Trace.Journal.fields;
            Alcotest.(check (option string))
              "payload" a.Trace.Journal.payload b.Trace.Journal.payload)
          sample l.Trace.Journal.l_records)

  let append_extends () =
    with_tmp (fun path ->
        write path [ List.hd sample ];
        let w = Trace.Journal.append path in
        Trace.Journal.add w (record "quar" [ "2" ] None);
        Trace.Journal.close w;
        let l = Trace.Journal.load path in
        Alcotest.(check int) "count" 2 (List.length l.Trace.Journal.l_records))

  let truncation_salvages_prefix () =
    with_tmp (fun path ->
        write path sample;
        let full = In_channel.with_open_bin path In_channel.input_all in
        (* Cut in the middle of the payload record (the third one). *)
        let cut = String.length full - (String.length full / 3) in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (String.sub full 0 cut));
        let l = Trace.Journal.load path in
        Alcotest.(check bool) "incomplete" false l.Trace.Journal.l_complete;
        Alcotest.(check bool) "error located" true
          (l.Trace.Journal.l_first_error <> None);
        Alcotest.(check bool) "prefix only" true
          (List.length l.Trace.Journal.l_records < List.length sample);
        List.iteri
          (fun i (r : Trace.Journal.record) ->
            Alcotest.(check string)
              (Printf.sprintf "tag %d" i)
              (List.nth sample i).Trace.Journal.tag r.Trace.Journal.tag)
          l.Trace.Journal.l_records)

  let corrupt_byte_detected () =
    with_tmp (fun path ->
        write path sample;
        let full = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
        (* Flip a byte inside the first record's fields. *)
        let pos = String.length "# hawkset-journal 1\nR batch " + 2 in
        Bytes.set full pos (Char.chr (Char.code (Bytes.get full pos) lxor 0x41));
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_bytes oc full);
        let l = Trace.Journal.load path in
        Alcotest.(check bool) "incomplete" false l.Trace.Journal.l_complete;
        Alcotest.(check int) "nothing salvaged after the flip" 0
          (List.length l.Trace.Journal.l_records))

  let missing_file_raises () =
    (* The documented escape hatch: everything else is salvaged, but an
       unopenable file is the caller's problem ([Supervise.run] guards
       resume with [Sys.file_exists]). *)
    Alcotest.(check bool) "Sys_error" true
      (match Trace.Journal.load "/nonexistent/hawkset.jnl" with
      | _ -> false
      | exception Sys_error _ -> true)

  let bad_token_rejected () =
    with_tmp (fun path ->
        let w = Trace.Journal.create path in
        Fun.protect
          ~finally:(fun () -> Trace.Journal.close w)
          (fun () ->
            Alcotest.(check bool) "space in field" true
              (match Trace.Journal.add w (record "x" [ "a b" ] None) with
              | () -> false
              | exception Invalid_argument _ -> true)))

  let tests =
    [
      Alcotest.test_case "roundtrip" `Quick roundtrip;
      Alcotest.test_case "append extends" `Quick append_extends;
      Alcotest.test_case "truncation salvages prefix" `Quick
        truncation_salvages_prefix;
      Alcotest.test_case "corrupt byte detected" `Quick corrupt_byte_detected;
      Alcotest.test_case "missing file raises" `Quick missing_file_raises;
      Alcotest.test_case "bad token rejected" `Quick bad_token_rejected;
    ]
end

module Budget_tests = struct
  let no_budget_is_transparent () =
    Alcotest.(check int) "result" 7 (Obs.Budget.with_guard (fun () -> 7))

  let wall_budget_fires () =
    Alcotest.check_raises "expired wall budget"
      (Obs.Budget.Exceeded (`Wall, 0.0)) (fun () ->
        (* A pre-expired budget trips on the synchronous entry check —
           deterministic, no waiting. *)
        try Obs.Budget.with_guard ~wall_s:0.0 (fun () -> ()) with
        | Obs.Budget.Exceeded (k, _) -> raise (Obs.Budget.Exceeded (k, 0.0)))

  let guard_disarms () =
    (* After a guarded call returns, allocating heavily must not raise a
       stale alarm exception. *)
    ignore (Obs.Budget.with_guard ~heap_mb:10_000.0 (fun () -> 1));
    let acc = ref [] in
    for i = 1 to 1_000 do
      acc := Array.make 100 i :: !acc
    done;
    Gc.full_major ();
    Alcotest.(check int) "allocated" 1_000 (List.length !acc)

  let tests =
    [
      Alcotest.test_case "no budget is transparent" `Quick
        no_budget_is_transparent;
      Alcotest.test_case "expired wall budget fires" `Quick wall_budget_fires;
      Alcotest.test_case "guard disarms on exit" `Quick guard_disarms;
    ]
end

module Classify_tests = struct
  let mapping () =
    let check name exp e =
      Alcotest.(check string) name exp
        (Supervise.failure_to_string (Supervise.classify_exn e))
    in
    check "wall" "timeout" (Obs.Budget.Exceeded (`Wall, 1.0));
    check "heap" "oom" (Obs.Budget.Exceeded (`Heap, 1.0));
    check "parse" "corrupt-trace" (Trace.Trace_io.Parse_error (3, "boom"));
    check "lost" "worker-lost" (Hawkset.Domain_pool.Worker_lost 2);
    check "other" "pipeline-exn" (Failure "anything else")

  let string_roundtrip () =
    List.iter
      (fun f ->
        match Supervise.failure_of_string (Supervise.failure_to_string f) with
        | Ok f' -> Alcotest.(check bool) "roundtrip" true (f = f')
        | Error m -> Alcotest.fail m)
      [ Supervise.Timeout; Supervise.Oom; Supervise.Corrupt_trace;
        Supervise.Pipeline_exn; Supervise.Worker_lost ];
    Alcotest.(check bool) "unknown rejected" true
      (match Supervise.failure_of_string "melted" with
      | Error _ -> true
      | Ok _ -> false)

  let fault_parsing () =
    (match Supervise.fault_of_string "2:timeout" with
    | Ok f ->
        Alcotest.(check int) "job" 2 f.Supervise.f_job;
        Alcotest.(check int) "times" 1 f.Supervise.f_times;
        Alcotest.(check bool) "class" true (f.Supervise.f_class = Supervise.Timeout)
    | Error m -> Alcotest.fail m);
    (match Supervise.fault_of_string "0:oom:99" with
    | Ok f -> Alcotest.(check int) "times" 99 f.Supervise.f_times
    | Error m -> Alcotest.fail m);
    List.iter
      (fun s ->
        Alcotest.(check bool) s true
          (match Supervise.fault_of_string s with Error _ -> true | Ok _ -> false))
      [ "nope"; "1:melted"; "-1:timeout"; "1:timeout:0"; "1:timeout:x:y" ]

  let tests =
    [
      Alcotest.test_case "exception mapping" `Quick mapping;
      Alcotest.test_case "failure string roundtrip" `Quick string_roundtrip;
      Alcotest.test_case "fault parsing" `Quick fault_parsing;
    ]
end

module Backoff_tests = struct
  let config ms = { Supervise.default_config with Supervise.backoff_ms = ms }

  let deterministic () =
    let c = config 50 in
    for job = 0 to 4 do
      for attempt = 1 to 4 do
        Alcotest.(check int)
          (Printf.sprintf "job %d attempt %d" job attempt)
          (Supervise.backoff_delay_ms c ~job ~attempt)
          (Supervise.backoff_delay_ms c ~job ~attempt)
      done
    done

  let exponential_envelope () =
    let c = config 50 in
    List.iter
      (fun attempt ->
        let d = Supervise.backoff_delay_ms c ~job:3 ~attempt in
        let base = 50 * (1 lsl (attempt - 1)) in
        Alcotest.(check bool)
          (Printf.sprintf "attempt %d in [%d, %d)" attempt base (base + 50))
          true
          (d >= base && d < base + 50))
      [ 1; 2; 3; 4; 5 ]

  let zero_disables () =
    Alcotest.(check int) "no sleep" 0
      (Supervise.backoff_delay_ms (config 0) ~job:1 ~attempt:3)

  (* Jobs failing together must not retry in lockstep: the jitter is
     drawn per job, so first-retry delays spread over [50, 100). *)
  let jitter_spreads_jobs () =
    let c = config 50 in
    let delays =
      List.map
        (fun job -> Supervise.backoff_delay_ms c ~job ~attempt:1)
        [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    in
    List.iter
      (fun d -> Alcotest.(check bool) "in [50, 100)" true (d >= 50 && d < 100))
      delays;
    Alcotest.(check bool)
      "some jitter differs across jobs" true
      (List.length (List.sort_uniq compare delays) > 1)

  (* The jitter seed is fixed, so a delay depends on [backoff_ms], job
     and attempt only: retry and breaker settings leave it alone. *)
  let jitter_ignores_other_settings () =
    let c1 = config 50 in
    let c2 = { c1 with Supervise.attempts = 7; breaker_threshold = 1 } in
    for job = 0 to 7 do
      for attempt = 1 to 3 do
        Alcotest.(check int)
          (Printf.sprintf "job %d attempt %d" job attempt)
          (Supervise.backoff_delay_ms c1 ~job ~attempt)
          (Supervise.backoff_delay_ms c2 ~job ~attempt)
      done
    done

  let tests =
    [
      Alcotest.test_case "deterministic" `Quick deterministic;
      Alcotest.test_case "exponential envelope" `Quick exponential_envelope;
      Alcotest.test_case "zero disables" `Quick zero_disables;
      Alcotest.test_case "jitter spreads jobs" `Quick jitter_spreads_jobs;
      Alcotest.test_case "jitter ignores other settings" `Quick
        jitter_ignores_other_settings;
    ]
end

module Run_tests = struct
  let jobs ?(apps = [ "fast-fair" ]) ?(seeds = [ 42 ]) () =
    match
      Supervise.jobs_of ~apps ~seeds ~policies:[ "round-robin" ] ~ops:150
    with
    | Ok js -> js
    | Error m -> Alcotest.fail m

  let fault j cls times =
    { Supervise.f_job = j; f_class = cls; f_times = times }

  let config ?(faults = []) ?stop_after ?(attempts = 3) ?(job_workers = 1) () =
    {
      Supervise.default_config with
      Supervise.backoff_ms = 0;
      attempts;
      faults;
      stop_after;
      job_workers;
    }

  let status_of i (b : Supervise.batch) =
    Supervise.status_string
      (List.nth b.Supervise.b_results i).Supervise.jr_status

  let enumeration () =
    match
      Supervise.jobs_of ~apps:[ "fast-fair"; "p-clht" ] ~seeds:[ 1; 2 ]
        ~policies:[ "round-robin"; "random" ] ~ops:100
    with
    | Error m -> Alcotest.fail m
    | Ok js ->
        Alcotest.(check int) "count" 8 (List.length js);
        let j0 = List.nth js 0 and j7 = List.nth js 7 in
        Alcotest.(check int) "ids in order" 0 j0.Supervise.j_id;
        Alcotest.(check string) "apps outermost" "fast-fair" j0.Supervise.j_app;
        Alcotest.(check string) "last app" "p-clht" j7.Supervise.j_app;
        Alcotest.(check int) "last seed" 2 j7.Supervise.j_seed;
        Alcotest.(check string) "last policy" "random" j7.Supervise.j_policy

  let unknown_rejected () =
    Alcotest.(check bool) "unknown app" true
      (match
         Supervise.jobs_of ~apps:[ "no-such-app" ] ~seeds:[ 1 ]
           ~policies:[ "random" ] ~ops:10
       with
      | Error _ -> true
      | Ok _ -> false);
    Alcotest.(check bool) "unknown policy" true
      (match
         Supervise.jobs_of ~apps:[ "fast-fair" ] ~seeds:[ 1 ]
           ~policies:[ "zigzag" ] ~ops:10
       with
      | Error _ -> true
      | Ok _ -> false)

  let clean_run () =
    let b = Supervise.run ~config:(config ()) (jobs ()) in
    Alcotest.(check string) "status" "ok" (status_of 0 b);
    Alcotest.(check bool) "not interrupted" false b.Supervise.b_interrupted

  let transient_fault_retried () =
    let b =
      Supervise.run
        ~config:(config ~faults:[ fault 0 Supervise.Timeout 1 ] ())
        (jobs ())
    in
    Alcotest.(check string) "status" "ok-retried" (status_of 0 b);
    match (List.hd b.Supervise.b_results).Supervise.jr_status with
    | Supervise.Done { d_attempts; d_failures; _ } ->
        Alcotest.(check int) "attempts" 2 d_attempts;
        Alcotest.(check bool) "history" true (d_failures = [ Supervise.Timeout ])
    | _ -> Alcotest.fail "expected Done"

  let oom_is_retried () =
    let b =
      Supervise.run
        ~config:(config ~faults:[ fault 0 Supervise.Oom 1 ] ())
        (jobs ())
    in
    Alcotest.(check string) "status" "ok-retried" (status_of 0 b);
    match (List.hd b.Supervise.b_results).Supervise.jr_status with
    | Supervise.Done { d_attempts; d_failures; _ } ->
        Alcotest.(check int) "attempts" 2 d_attempts;
        Alcotest.(check bool) "history" true (d_failures = [ Supervise.Oom ])
    | _ -> Alcotest.fail "expected Done"

  let permanent_fault_bounded () =
    let attempts = 3 in
    let b =
      Supervise.run
        ~config:(config ~attempts ~faults:[ fault 0 Supervise.Pipeline_exn 99 ] ())
        (jobs ())
    in
    Alcotest.(check string) "status" "failed" (status_of 0 b);
    match (List.hd b.Supervise.b_results).Supervise.jr_status with
    | Supervise.Gave_up { g_attempts; g_failures } ->
        Alcotest.(check int) "exactly the attempt bound" attempts g_attempts;
        Alcotest.(check int) "one failure per attempt" attempts
          (List.length g_failures)
    | _ -> Alcotest.fail "expected Gave_up"

  let breaker_quarantines () =
    (* Three seeds of one app; the first two exhaust their attempts, so
       with breaker_threshold = 2 the third must be quarantined without
       running. *)
    let js = jobs ~seeds:[ 1; 2; 3 ] () in
    let faults =
      [ fault 0 Supervise.Pipeline_exn 99; fault 1 Supervise.Pipeline_exn 99 ]
    in
    let b = Supervise.run ~config:(config ~faults ()) js in
    Alcotest.(check string) "first failed" "failed" (status_of 0 b);
    Alcotest.(check string) "second failed" "failed" (status_of 1 b);
    Alcotest.(check string) "third quarantined" "quarantined" (status_of 2 b);
    let c = Supervise.counters b in
    Alcotest.(check (option int)) "quarantined counter" (Some 1)
      (List.assoc_opt "supervise.quarantined" c)

  let success_resets_breaker () =
    (* fail, ok, fail: never two consecutive exhaustions, so no job is
       quarantined. *)
    let js = jobs ~seeds:[ 1; 2; 3 ] () in
    let faults =
      [ fault 0 Supervise.Pipeline_exn 99; fault 2 Supervise.Pipeline_exn 99 ]
    in
    let b = Supervise.run ~config:(config ~faults ()) js in
    Alcotest.(check string) "first failed" "failed" (status_of 0 b);
    Alcotest.(check string) "second ok" "ok" (status_of 1 b);
    Alcotest.(check string) "third failed (not quarantined)" "failed"
      (status_of 2 b)

  (* --- the durability contract --- *)

  let chaos_faults =
    [
      fault 0 Supervise.Corrupt_trace 1;
      fault 1 Supervise.Timeout 1;
      fault 2 Supervise.Oom 1;
      fault 3 Supervise.Worker_lost 99;
    ]

  let chaos_jobs () = jobs ~apps:[ "fast-fair"; "p-clht" ] ~seeds:[ 42; 43 ] ()

  let kill_resume_byte_identical () =
    let js = chaos_jobs () in
    let golden = Supervise.run ~config:(config ~faults:chaos_faults ()) js in
    with_tmp (fun journal ->
        let killed =
          Supervise.run ~journal
            ~config:(config ~faults:chaos_faults ~stop_after:2 ())
            js
        in
        Alcotest.(check bool) "interrupted" true killed.Supervise.b_interrupted;
        Alcotest.(check int) "prefix" 2
          (List.length killed.Supervise.b_results);
        let resumed =
          Supervise.run ~journal ~resume:true
            ~config:(config ~faults:chaos_faults ())
            js
        in
        Alcotest.(check int) "replayed"
          2
          (List.length
             (List.filter
                (fun jr -> jr.Supervise.jr_replayed)
                resumed.Supervise.b_results));
        Alcotest.(check string) "byte-identical merged report"
          (Supervise.merged_json golden)
          (Supervise.merged_json resumed);
        (* Every injected class is classified once, retried to success,
           and the permanent fault is bounded by the attempt limit —
           replayed jobs included. *)
        List.iteri
          (fun i want ->
            Alcotest.(check string) (Printf.sprintf "job %d status" i) want
              (status_of i resumed))
          [ "ok-retried"; "ok-retried"; "ok-retried"; "failed" ];
        let counters = Supervise.counters resumed in
        List.iter
          (fun (name, want) ->
            Alcotest.(check (option int)) name (Some want)
              (List.assoc_opt name counters))
          [
            ("supervise.failures.corrupt_trace", 1);
            ("supervise.failures.timeout", 1);
            ("supervise.failures.oom", 1);
            ("supervise.failures.worker_lost", (config ()).Supervise.attempts);
          ])

  (* Width is one more input of the durability contract: journals
     written and resumed at width 1 and at width 4 behave alike. *)
  let widths = [ 1; 4 ]

  let resume_of_complete_journal_is_pure_replay () =
    let js = chaos_jobs () in
    List.iter
      (fun job_workers ->
        with_tmp (fun journal ->
            let golden =
              Supervise.run ~journal
                ~config:(config ~faults:chaos_faults ~job_workers ())
                js
            in
            let resumed =
              Supervise.run ~journal ~resume:true
                ~config:(config ~faults:chaos_faults ~job_workers ())
                js
            in
            Alcotest.(check bool)
              (Printf.sprintf "all replayed (width %d)" job_workers)
              true
              (List.for_all
                 (fun jr -> jr.Supervise.jr_replayed)
                 resumed.Supervise.b_results);
            Alcotest.(check string)
              (Printf.sprintf "byte-identical (width %d)" job_workers)
              (Supervise.merged_json golden)
              (Supervise.merged_json resumed)))
      widths

  let resume_survives_torn_tail () =
    (* Kill "mid-write": truncate the journal inside its final record.
       The salvage keeps the valid prefix; the torn job re-runs; the
       merged report is still byte-identical. *)
    let js = chaos_jobs () in
    let golden = Supervise.run ~config:(config ~faults:chaos_faults ()) js in
    List.iter
      (fun job_workers ->
        with_tmp (fun journal ->
            ignore
              (Supervise.run ~journal
                 ~config:
                   (config ~faults:chaos_faults ~stop_after:3 ~job_workers ())
                 js);
            let full = In_channel.with_open_bin journal In_channel.input_all in
            Out_channel.with_open_bin journal (fun oc ->
                Out_channel.output_string oc
                  (String.sub full 0 (String.length full - 7)));
            let resumed =
              Supervise.run ~journal ~resume:true
                ~config:(config ~faults:chaos_faults ~job_workers ())
                js
            in
            Alcotest.(check string)
              (Printf.sprintf "byte-identical after torn tail (width %d)"
                 job_workers)
              (Supervise.merged_json golden)
              (Supervise.merged_json resumed)))
      widths

  (* Every width writes the same journal records; only their order across
     chains may differ. *)
  let journal_records_width_independent () =
    let js = chaos_jobs () in
    let records job_workers =
      with_tmp (fun journal ->
          ignore
            (Supervise.run ~journal
               ~config:(config ~faults:chaos_faults ~job_workers ())
               js);
          (Trace.Journal.load journal).Trace.Journal.l_records
          |> List.map (fun (r : Trace.Journal.record) ->
                 String.concat " " (r.Trace.Journal.tag :: r.Trace.Journal.fields)
                 ^ Option.fold ~none:"" ~some:(fun p -> " " ^ p)
                     r.Trace.Journal.payload)
          |> List.sort compare)
    in
    let w1 = records 1 in
    List.iter
      (fun tag ->
        Alcotest.(check bool) (tag ^ " recorded") true
          (List.exists (fun r -> String.starts_with ~prefix:(tag ^ " ") r) w1))
      [ "start"; "fail"; "done"; "gaveup" ];
    Alcotest.(check (list string)) "same record multiset" w1 (records 4)

  let resume_mismatch_refused () =
    let js = chaos_jobs () in
    with_tmp (fun journal ->
        ignore (Supervise.run ~journal ~config:(config ()) js);
        Alcotest.(check bool) "mismatch raises" true
          (match
             Supervise.run ~journal ~resume:true
               ~config:(config ~faults:chaos_faults ())
               js
           with
          | _ -> false
          | exception Supervise.Resume_mismatch _ -> true))

  (* A journal written before the fingerprint lost its [pjobs=] term (and
     before [start]/[done] lost their sequential flag) is refused on
     resume instead of being read in the old record layout. *)
  let previous_layout_refused () =
    let js = chaos_jobs () in
    let c = config () in
    let b = Buffer.create 256 in
    List.iter
      (fun (j : Supervise.job) ->
        Buffer.add_string b
          (Printf.sprintf "%d %s %d %s %d;" j.Supervise.j_id j.j_app j.j_seed
             j.j_policy j.j_ops))
      js;
    Buffer.add_string b
      (Printf.sprintf "attempts=%d;backoff=%d;bseed=42;breaker=%d;pjobs=1;"
         c.Supervise.attempts c.backoff_ms c.breaker_threshold);
    let old_fp = Trace.Journal.fnv_hex (Buffer.contents b) in
    Alcotest.(check bool) "fingerprint changed" true
      (old_fp <> Supervise.fingerprint c js);
    with_tmp (fun journal ->
        let w = Trace.Journal.create journal in
        let add tag fields payload =
          Trace.Journal.add w { Trace.Journal.tag; fields; payload }
        in
        add "batch" [ old_fp; string_of_int (List.length js) ] None;
        add "start" [ "0"; "1"; "0" ] None;
        add "done" [ "0"; "1"; "0"; "0" ] (Some "[]");
        Trace.Journal.close w;
        match Supervise.run ~journal ~resume:true ~config:c js with
        | _ -> Alcotest.fail "resume accepted a previous-layout journal"
        | exception Supervise.Resume_mismatch { found; _ } ->
            Alcotest.(check (option string)) "found the old fingerprint"
              (Some old_fp) found)

  (* --- job-level concurrency: byte-identity across widths --- *)

  let concurrent_byte_identical () =
    (* Same declaration, every fault class injected: four concurrent
       per-app chains must reproduce the width-1 run byte for byte —
       statuses (retries, degradation, the breaker) included. *)
    let js = chaos_jobs () in
    let seq = Supervise.run ~config:(config ~faults:chaos_faults ()) js in
    let par =
      Supervise.run ~config:(config ~faults:chaos_faults ~job_workers:4 ()) js
    in
    Alcotest.(check string) "merged report byte-identical"
      (Supervise.merged_json seq)
      (Supervise.merged_json par);
    List.iteri
      (fun i _ ->
        Alcotest.(check string)
          (Printf.sprintf "status %d" i)
          (status_of i seq) (status_of i par))
      js

  let concurrent_breaker_quarantines () =
    (* The breaker is per-app state; a chain running concurrently with
       other apps' chains must quarantine exactly like the width-1
       run. *)
    let js = jobs ~seeds:[ 1; 2; 3 ] () in
    let faults =
      [ fault 0 Supervise.Pipeline_exn 99; fault 1 Supervise.Pipeline_exn 99 ]
    in
    let b = Supervise.run ~config:(config ~faults ~job_workers:4 ()) js in
    Alcotest.(check string) "first failed" "failed" (status_of 0 b);
    Alcotest.(check string) "second failed" "failed" (status_of 1 b);
    Alcotest.(check string) "third quarantined" "quarantined" (status_of 2 b)

  let concurrent_kill_resume () =
    (* A concurrent batch killed mid-flight and resumed concurrently
       still reproduces the width-1 golden report: completed jobs replay
       from the journal by id, partial jobs continue from their next
       attempt. *)
    let js = chaos_jobs () in
    let golden = Supervise.run ~config:(config ~faults:chaos_faults ()) js in
    with_tmp (fun journal ->
        let killed =
          Supervise.run ~journal
            ~config:(config ~faults:chaos_faults ~stop_after:2 ~job_workers:4 ())
            js
        in
        Alcotest.(check bool) "interrupted" true killed.Supervise.b_interrupted;
        let resumed =
          Supervise.run ~journal ~resume:true
            ~config:(config ~faults:chaos_faults ~job_workers:4 ())
            js
        in
        Alcotest.(check string) "byte-identical merged report"
          (Supervise.merged_json golden)
          (Supervise.merged_json resumed))

  (* --- the result cache --- *)

  let cache_preserves_report () =
    (* A cache-enabled batch embeds cached bytes on hits; re-running the
       same declaration against the same cache hits for every job and
       still produces the identical merged report. *)
    let js = chaos_jobs () in
    let golden = Supervise.run ~config:(config ()) js in
    let cache = Hawkset.Result_cache.create () in
    let cold = Supervise.run ~cache ~config:(config ()) js in
    Alcotest.(check string) "cold run identical"
      (Supervise.merged_json golden)
      (Supervise.merged_json cold);
    Alcotest.(check bool) "cache populated" true
      (Hawkset.Result_cache.length cache > 0);
    let warm = Supervise.run ~cache ~config:(config ()) js in
    Alcotest.(check string) "warm run identical"
      (Supervise.merged_json golden)
      (Supervise.merged_json warm);
    let hits =
      Option.value ~default:0
        (List.assoc_opt "cache.hits" (Hawkset.Result_cache.stats cache))
    in
    Alcotest.(check bool) "warm run hit the cache" true (hits >= List.length js)

  let cache_concurrent_identical () =
    let js = chaos_jobs () in
    let golden = Supervise.run ~config:(config ()) js in
    let cache = Hawkset.Result_cache.create () in
    let b =
      Supervise.run ~cache ~config:(config ~job_workers:4 ()) js
    in
    Alcotest.(check string) "concurrent cached run identical"
      (Supervise.merged_json golden)
      (Supervise.merged_json b)

  (* The purity audit behind job-keyed hits: every registry app under
     every policy, cold with a cache, then warm. The warm run must hit
     for every job without executing anything, and both merged reports
     must equal an uncached run's. *)
  let cache_purity_audit () =
    let js =
      match
        Supervise.jobs_of
          ~apps:(List.map (fun e -> e.Pmapps.Registry.reg_name) Pmapps.Registry.all)
          ~seeds:[ 3 ]
          ~policies:[ "round-robin"; "random"; "delay"; "pct" ]
          ~ops:200
      with
      | Ok js -> js
      | Error m -> Alcotest.fail m
    in
    Alcotest.(check int) "9 apps x 4 policies" 36 (List.length js);
    let golden = Supervise.merged_json (Supervise.run ~config:(config ()) js) in
    let cache = Hawkset.Result_cache.create () in
    let stat name =
      Option.value ~default:(-1)
        (List.assoc_opt name (Hawkset.Result_cache.stats cache))
    in
    let cold = Supervise.run ~cache ~config:(config ~job_workers:2 ()) js in
    Alcotest.(check string) "cold = uncached" golden (Supervise.merged_json cold);
    Alcotest.(check int) "cold: every job missed" 36 (stat "cache.misses");
    Alcotest.(check int) "cold: every job stored" 36 (stat "cache.entries");
    let runs = Obs.Registry.counter "sched.machine_runs" in
    let runs_before = Obs.Metric.value runs in
    let warm = Supervise.run ~cache ~config:(config ()) js in
    Alcotest.(check string) "warm = uncached" golden (Supervise.merged_json warm);
    Alcotest.(check int) "warm: every job hit" 36 (stat "cache.hits");
    Alcotest.(check int) "warm: no new miss" 36 (stat "cache.misses");
    Alcotest.(check int) "warm: no app executed" runs_before
      (Obs.Metric.value runs);
    (* Persisted and reloaded in the same build, every entry survives
       and still serves every job. *)
    with_tmp (fun path ->
        Hawkset.Result_cache.save cache path;
        let loaded = Hawkset.Result_cache.load path in
        Alcotest.(check int) "save/load keeps every entry" 36
          (Hawkset.Result_cache.length loaded);
        let reloaded = Supervise.run ~cache:loaded ~config:(config ()) js in
        Alcotest.(check string) "reloaded = uncached" golden
          (Supervise.merged_json reloaded);
        Alcotest.(check (option int)) "reloaded: every job hit" (Some 36)
          (List.assoc_opt "cache.hits" (Hawkset.Result_cache.stats loaded)))

  let merged_json_shape () =
    let b =
      Supervise.run
        ~config:(config ~faults:[ fault 0 Supervise.Timeout 1 ] ())
        (jobs ())
    in
    let json = Supervise.merged_json b in
    List.iter
      (fun needle ->
        let re = Str.regexp_string needle in
        Alcotest.(check bool) needle true
          (match Str.search_forward re json 0 with
          | _ -> true
          | exception Not_found -> false))
      [
        "\"schema\":\"hawkset.batch_report/2\"";
        "\"status\":\"ok-retried\"";
        "\"failures\":[\"timeout\"]";
        "\"races\":[";
      ]

  let tests =
    [
      Alcotest.test_case "job enumeration" `Quick enumeration;
      Alcotest.test_case "unknown app/policy rejected" `Quick unknown_rejected;
      Alcotest.test_case "clean run" `Quick clean_run;
      Alcotest.test_case "transient fault retried" `Quick
        transient_fault_retried;
      Alcotest.test_case "oom is retried" `Quick oom_is_retried;
      Alcotest.test_case "permanent fault bounded" `Quick
        permanent_fault_bounded;
      Alcotest.test_case "breaker quarantines" `Quick breaker_quarantines;
      Alcotest.test_case "success resets breaker" `Quick success_resets_breaker;
      Alcotest.test_case "kill+resume byte-identical" `Quick
        kill_resume_byte_identical;
      Alcotest.test_case "complete journal is pure replay" `Quick
        resume_of_complete_journal_is_pure_replay;
      Alcotest.test_case "resume survives torn tail" `Quick
        resume_survives_torn_tail;
      Alcotest.test_case "journal records width-independent" `Quick
        journal_records_width_independent;
      Alcotest.test_case "resume mismatch refused" `Quick
        resume_mismatch_refused;
      Alcotest.test_case "previous journal layout refused" `Quick
        previous_layout_refused;
      Alcotest.test_case "concurrent byte-identical" `Quick
        concurrent_byte_identical;
      Alcotest.test_case "concurrent breaker quarantines" `Quick
        concurrent_breaker_quarantines;
      Alcotest.test_case "concurrent kill+resume byte-identical" `Quick
        concurrent_kill_resume;
      Alcotest.test_case "cache preserves report" `Quick cache_preserves_report;
      Alcotest.test_case "concurrent cached run identical" `Quick
        cache_concurrent_identical;
      Alcotest.test_case "cache purity audit" `Quick cache_purity_audit;
      Alcotest.test_case "merged json shape" `Quick merged_json_shape;
    ]
end

let () =
  Alcotest.run "supervise"
    [
      ("journal", Journal_tests.tests);
      ("budget", Budget_tests.tests);
      ("classify", Classify_tests.tests);
      ("backoff", Backoff_tests.tests);
      ("run", Run_tests.tests);
    ]
