(* Crash-sweep fault injection and the degradation contract: cut runs
   really crash where asked, verification is deterministic, the control
   app survives every cut, and a pipeline whose budget runs out still
   returns a report instead of dying. *)

module S = Machine.Sched

let runner name =
  match Crashtest.runner_for name with
  | Some r -> r
  | None -> Alcotest.failf "no crash-sweep runner for %s" name

let small =
  {
    Crashtest.default_config with
    Crashtest.c_ops = 80;
    c_threads = 2;
    c_stride = 400;
    c_max_points = 5;
    c_verify_budget = 100_000;
  }

let fast_fair_trace ops seed =
  (Pmapps.Driver.run_kv_ycsb (module Pmapps.Fast_fair) ~seed ~ops ()).S.trace

module Crash_spec_tests = struct
  let cut_at_events () =
    let r = runner "fast-fair" in
    let ex =
      r.Crashtest.r_exec ~seed:3 ~ops:80 ~threads:2 ~crash:(`After_events 200)
    in
    Alcotest.(check bool) "crashed" true
      (ex.Crashtest.ex_report.S.outcome = S.Crashed);
    Alcotest.(check int) "stopped at the budget" 200
      ex.Crashtest.ex_report.S.event_count

  let cut_at_fences () =
    let r = runner "fast-fair" in
    let ex =
      r.Crashtest.r_exec ~seed:3 ~ops:80 ~threads:2 ~crash:(`After_fences 5)
    in
    Alcotest.(check bool) "crashed" true
      (ex.Crashtest.ex_report.S.outcome = S.Crashed);
    let st = Trace.Tracebuf.stats ex.Crashtest.ex_report.S.trace in
    Alcotest.(check int) "exactly five fences in the prefix" 5
      st.Trace.Tracebuf.fences

  let uncut_completes () =
    let r = runner "pmlog" in
    let ex = r.Crashtest.r_exec ~seed:3 ~ops:40 ~threads:2 ~crash:`No in
    Alcotest.(check bool) "completed" true
      (ex.Crashtest.ex_report.S.outcome = S.Completed);
    Alcotest.(check bool) "acked work" true (ex.Crashtest.ex_acked > 0)

  let tests =
    [
      Alcotest.test_case "cut at an event budget" `Quick cut_at_events;
      Alcotest.test_case "cut at a fence budget" `Quick cut_at_fences;
      Alcotest.test_case "uncut run completes" `Quick uncut_completes;
    ]
end

module Verify_tests = struct
  (* The same cut verified twice must classify identically: the machine
     is deterministic and the damage walk is sorted. *)
  let deterministic () =
    let r = runner "memcached-pmem" in
    let once () =
      let ex =
        r.Crashtest.r_exec ~seed:7 ~ops:80 ~threads:2
          ~crash:(`After_events 1_500)
      in
      ex.Crashtest.ex_verify ~budget:100_000
    in
    let a = once () and b = once () in
    Alcotest.(check bool) "same classification" true (a = b)

  (* Memcached-pmem never flushes its values: any mid-run cut that acked
     work must show durable damage. *)
  let memcached_damaged () =
    let r = runner "memcached-pmem" in
    let ex =
      r.Crashtest.r_exec ~seed:7 ~ops:80 ~threads:2 ~crash:(`After_events 1_500)
    in
    Alcotest.(check bool) "acked before the cut" true (ex.Crashtest.ex_acked > 0);
    match ex.Crashtest.ex_verify ~budget:100_000 with
    | Crashtest.Damaged msgs ->
        Alcotest.(check bool) "damage messages" true (msgs <> [])
    | Crashtest.Clean -> Alcotest.fail "expected durable damage, got clean"
    | Crashtest.Recovery_raised msg ->
        Alcotest.failf "recovery raised: %s" msg

  (* A verify budget too small for recovery classifies as a recovery
     failure instead of hanging the sweep. *)
  let budget_exhaustion_is_a_failure () =
    let r = runner "fast-fair" in
    let ex =
      r.Crashtest.r_exec ~seed:3 ~ops:80 ~threads:2 ~crash:(`After_events 400)
    in
    match ex.Crashtest.ex_verify ~budget:5 with
    | Crashtest.Recovery_raised _ -> ()
    | Crashtest.Clean | Crashtest.Damaged _ ->
        Alcotest.fail "a 5-event recovery budget cannot succeed"

  let tests =
    [
      Alcotest.test_case "verification is deterministic" `Quick deterministic;
      Alcotest.test_case "memcached cut shows damage" `Quick memcached_damaged;
      Alcotest.test_case "tiny verify budget raises" `Quick
        budget_exhaustion_is_a_failure;
    ]
end

module Sweep_tests = struct
  let control_is_clean () =
    let s = Crashtest.run_sweep ~config:small (runner "pmlog") in
    Alcotest.(check bool) "swept some points" true (s.Crashtest.sw_points <> []);
    Alcotest.(check int) "no damage" 0 s.Crashtest.sw_damaged;
    Alcotest.(check int) "no recovery failures" 0 s.Crashtest.sw_raised;
    Alcotest.(check (list int)) "nothing manifested" [] s.Crashtest.sw_manifested

  let outcome_counts_partition () =
    let s = Crashtest.run_sweep ~config:small (runner "fast-fair") in
    Alcotest.(check int) "classes partition the points"
      (List.length s.Crashtest.sw_points)
      (s.Crashtest.sw_clean + s.Crashtest.sw_damaged + s.Crashtest.sw_raised
     + s.Crashtest.sw_completed)

  let harness_rows () =
    let rows = Harness.Crash_sweep.run ~config:small ~apps:[ "pmlog"; "nope" ] () in
    Alcotest.(check int) "unknown app skipped" 1 (List.length rows);
    let summary = Harness.Crash_sweep.to_string rows in
    Alcotest.(check bool) "summary mentions the control verdict" true
      (let open Str in
       string_match (regexp ".*clean (as expected).*")
         (global_replace (regexp_string "\n") " " summary) 0)

  (* At the default sweep (400 ops), each bug-target app manifests its
     injected bug — durable damage at a crash point whose prefix report
     names the bug — within a short seed hunt, and the bug-free control
     stays clean at every point. *)
  let bugs_manifest () =
    let sweep app seed =
      Crashtest.run_sweep
        ~config:{ Crashtest.default_config with Crashtest.c_seed = seed }
        (runner app)
    in
    List.iter
      (fun (app, id) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s manifests bug #%d" app id)
          true
          (List.exists
             (fun seed -> List.mem id (sweep app seed).Crashtest.sw_manifested)
             [ 42; 7; 1; 13; 99 ]))
      [ ("fast-fair", 1); ("turbo-hash", 3); ("p-clht", 4);
        ("memcached-pmem", 12) ];
    let control = sweep "pmlog" 42 in
    Alcotest.(check int) "control: no damage" 0 control.Crashtest.sw_damaged;
    Alcotest.(check int) "control: no recovery failures" 0
      control.Crashtest.sw_raised

  let tests =
    [
      Alcotest.test_case "pmlog control survives every cut" `Quick
        control_is_clean;
      Alcotest.test_case "outcome classes partition" `Quick
        outcome_counts_partition;
      Alcotest.test_case "harness driver and summary" `Quick harness_rows;
      Alcotest.test_case "target bugs manifest, control clean" `Slow
        bugs_manifest;
    ]
end

module Degradation_tests = struct
  let trace = lazy (fast_fair_trace 800 42)

  let event_budget_truncates () =
    let trace = Lazy.force trace in
    let budget = Trace.Tracebuf.length trace / 2 in
    let r =
      Hawkset.Pipeline.run
        ~config:
          { Hawkset.Pipeline.default with
            Hawkset.Pipeline.event_budget = Some budget }
        trace
    in
    Alcotest.(check bool) "truncation recorded" true
      (List.exists
         (fun (t : Hawkset.Pipeline.truncation) ->
           t.Hawkset.Pipeline.trunc_stage = "collect"
           && t.Hawkset.Pipeline.trunc_reason = "event_budget"
           && t.Hawkset.Pipeline.trunc_done = budget
           && t.Hawkset.Pipeline.trunc_total = Trace.Tracebuf.length trace)
         r.Hawkset.Pipeline.truncated);
    (* The degraded run equals the honest run over the prefix: the budget
       is a deterministic cut, not a best-effort race. *)
    let honest =
      Hawkset.Pipeline.run (Trace.Tracebuf.prefix trace budget)
    in
    Alcotest.(check string) "same races as the prefix"
      (Hawkset.Report.to_json honest.Hawkset.Pipeline.races)
      (Hawkset.Report.to_json r.Hawkset.Pipeline.races)

  let no_budget_no_truncation () =
    let trace = Lazy.force trace in
    let r = Hawkset.Pipeline.run trace in
    Alcotest.(check int) "no truncations" 0
      (List.length r.Hawkset.Pipeline.truncated)

  let repeated_analysis_identical () =
    (* Stage 3 reads the collected records without mutating them, so a
       second analysis of the same result reproduces the first exactly:
       report, pair count and counter delta. *)
    let trace = Lazy.force trace in
    let collected = Hawkset.Collector.collect trace in
    let analyse () =
      Obs.Registry.reset Obs.Registry.global;
      let o = Hawkset.Analysis.run collected in
      (o, Obs.Registry.counters Obs.Registry.global)
    in
    let first, first_counters = analyse () in
    let again, again_counters = analyse () in
    Alcotest.(check string) "report bit-identical"
      (Hawkset.Report.to_json first.Hawkset.Analysis.report)
      (Hawkset.Report.to_json again.Hawkset.Analysis.report);
    Alcotest.(check int) "same pair count" first.Hawkset.Analysis.pairs
      again.Hawkset.Analysis.pairs;
    Alcotest.(check (list (pair string int))) "same counters" first_counters
      again_counters

  let stop_predicate_cuts_analysis () =
    let trace = Lazy.force trace in
    let collected = Hawkset.Collector.collect trace in
    let full = Hawkset.Analysis.run collected in
    let stopped = Hawkset.Analysis.run ~stop:(fun () -> true) collected in
    Alcotest.(check bool) "full run analyses everything" true
      (full.Hawkset.Analysis.words_analysed = full.Hawkset.Analysis.words_total);
    Alcotest.(check bool) "stopped run analyses less" true
      (stopped.Hawkset.Analysis.words_analysed
      < stopped.Hawkset.Analysis.words_total)

  let stop_predicate_cuts_collection () =
    let trace = Lazy.force trace in
    let c = Hawkset.Collector.collect ~stop:(fun () -> true) trace in
    Alcotest.(check bool) "collection cut short" true
      (c.Hawkset.Collector.stats.Hawkset.Collector.c_events
      < Trace.Tracebuf.length trace)

  let tests =
    [
      Alcotest.test_case "event budget truncates deterministically" `Quick
        event_budget_truncates;
      Alcotest.test_case "no budget, no truncation" `Quick no_budget_no_truncation;
      Alcotest.test_case "repeated analysis is bit-identical" `Quick
        repeated_analysis_identical;
      Alcotest.test_case "analysis stop predicate" `Quick
        stop_predicate_cuts_analysis;
      Alcotest.test_case "collector stop predicate" `Quick
        stop_predicate_cuts_collection;
    ]
end

let () =
  Alcotest.run "crashtest"
    [
      ("crash specs", Crash_spec_tests.tests);
      ("verification", Verify_tests.tests);
      ("sweep", Sweep_tests.tests);
      ("degradation", Degradation_tests.tests);
    ]
