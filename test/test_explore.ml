(* Schedule exploration: scheduler determinism per policy (including the
   PCT random-priority mode), the interleaving-stability oracle, and the
   dumped-fixture replay path with checksum salvage. *)

module S = Machine.Sched
module R = Pmapps.Registry

let policies =
  [
    ("random", S.Random_interleave);
    ("round-robin", S.Round_robin);
    ("delay", S.Delay_injection { probability = 0.05; duration = 40 });
    ("pct", S.Pct { depth = 3 });
  ]

let entry name =
  match R.find name with
  | Some e -> e
  | None -> Alcotest.failf "%s not registered" name

module Determinism_tests = struct
  (* The determinism contract behind the whole exploration design: the
     trace is a pure function of (workload seed, scheduler seed, policy).
     [Trace_io.fingerprint] hashes the rendered event lines — the exact
     bytes [save] writes — so equal fingerprints mean byte-identical
     traces. Checked for every registered app under all four policies. *)
  let app_deterministic (e : R.entry) () =
    let ops = R.clamp_ops e 40 in
    List.iteri
      (fun i (name, policy) ->
        let fingerprint () =
          Trace.Trace_io.fingerprint
            (e.R.run ~seed:7 ~sched_seed:(100 + i) ~policy ~ops ()).S.trace
        in
        Alcotest.(check string)
          (name ^ ": same trace bytes")
          (fingerprint ()) (fingerprint ()))
      policies

  (* Same scheduler seed under a different policy must not (for these
     seeds) collapse to the same interleaving — the sweep's policy axis
     actually moves the schedule. *)
  let policies_differ () =
    let e = entry "fast-fair" in
    let ops = R.clamp_ops e 40 in
    let fp policy =
      Trace.Trace_io.fingerprint
        (e.R.run ~seed:7 ~sched_seed:100 ~policy ~ops ()).S.trace
    in
    let fps = List.map (fun (_, p) -> fp p) policies in
    Alcotest.(check int)
      "4 policies, 4 distinct traces" 4
      (List.length (List.sort_uniq String.compare fps))

  (* Round-trip: save + load preserves every event byte. *)
  let roundtrip () =
    let e = entry "fast-fair" in
    let ops = R.clamp_ops e 40 in
    let trace =
      (e.R.run ~seed:7 ~sched_seed:3 ~policy:(S.Pct { depth = 3 }) ~ops ())
        .S.trace
    in
    let file = Filename.temp_file "hawkset_pct" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove file)
      (fun () ->
        Trace.Trace_io.save file trace;
        let back = Trace.Trace_io.load file in
        Alcotest.(check int)
          "same event count"
          (Trace.Tracebuf.length trace)
          (Trace.Tracebuf.length back);
        Alcotest.(check string)
          "same bytes"
          (Trace.Trace_io.fingerprint trace)
          (Trace.Trace_io.fingerprint back))

  (* The property, seed-randomized: QCheck picks the app, the policy and
     the seeds; two runs must agree. QCHECK_SEED pins the cases in CI. *)
  let qcheck_pure_function =
    QCheck.Test.make ~name:"trace is a pure function of (seeds, policy)"
      ~count:12
      QCheck.(
        triple
          (int_range 0 (List.length R.all - 1))
          (int_range 0 (List.length policies - 1))
          small_int)
      (fun (ai, pi, seed) ->
        let e = List.nth R.all ai in
        let ops = R.clamp_ops e 30 in
        let _, policy = List.nth policies pi in
        let fingerprint () =
          Trace.Trace_io.fingerprint
            (e.R.run ~seed ~sched_seed:(seed + 1) ~policy ~ops ()).S.trace
        in
        String.equal (fingerprint ()) (fingerprint ()))

  (* PCT bookkeeping: priority changes happen, are bounded by depth-1 per
     schedule, and the counter is deterministic. *)
  let pct_changes_bounded () =
    let e = entry "fast-fair" in
    let ops = R.clamp_ops e 40 in
    let changes sched_seed depth =
      (e.R.run ~seed:7 ~sched_seed ~policy:(S.Pct { depth }) ~ops ()).S.stats
        .S.pct_priority_changes
    in
    List.iter
      (fun seed ->
        let c = changes seed 3 in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: 0 <= changes (%d) <= 2" seed c)
          true
          (c >= 0 && c <= 2))
      [ 1; 2; 3; 4; 5 ]

  let tests =
    List.map
      (fun (e : R.entry) ->
        Alcotest.test_case
          ("pure trace: " ^ e.R.reg_name)
          `Slow (app_deterministic e))
      R.all
    @ [
        Alcotest.test_case "policies move the schedule" `Quick policies_differ;
        Alcotest.test_case "save/load round-trip" `Quick roundtrip;
        QCheck_alcotest.to_alcotest qcheck_pure_function;
        Alcotest.test_case "pct change budget" `Quick pct_changes_bounded;
      ]
end

module Oracle_tests = struct
  (* A small sweep must pass the oracle: no erroring schedule, every
     directly-observed inconsistency already in that schedule's report,
     identical traces identical reports. *)
  let sweep_passes ?(outruns_pmrace = false) app () =
    let config =
      { Explore.default_config with Explore.schedules = 6; ops = 120 }
    in
    let t = Explore.run ~config (entry app) in
    Alcotest.(check int) "all schedules ran" 6
      (List.length t.Explore.x_results);
    Alcotest.(check int) "no errors" 0 t.Explore.x_errors;
    Alcotest.(check int) "no divergences" 0
      (List.length t.Explore.x_divergences);
    Alcotest.(check bool) "stable" true (Explore.stable t);
    Alcotest.(check bool)
      "policy sweep reaches distinct interleavings" true
      (t.Explore.x_distinct_traces >= 2);
    (* The baseline union is at least as large as any schedule's set. *)
    List.iter
      (fun (r : Explore.schedule_result) ->
        List.iter
          (fun p ->
            Alcotest.(check bool) "canonical within baseline" true
              (List.mem p t.Explore.x_baseline))
          r.Explore.s_canonical)
      t.Explore.x_results;
    (* Table 3's asymmetry per interleaving: some bug is reported by the
       lockset analysis in more schedules than direct observation (the
       PMRace signal) catches it. *)
    if outruns_pmrace then
      Alcotest.(check bool) "a bug HawkSet reports more often than observed"
        true
        (List.exists
           (fun (b : Explore.bug_hits) ->
             b.Explore.b_hawkset > b.Explore.b_pmrace)
           t.Explore.x_bug_hits)

  (* A PCT-only sweep (fresh priorities every schedule) obeys the same
     oracle — the new policy introduces no detector instability. *)
  let pct_sweep_passes () =
    let config =
      {
        Explore.default_config with
        Explore.schedules = 4;
        policy = Explore.Pct;
        ops = 120;
      }
    in
    let t = Explore.run ~config (entry "fast-fair") in
    Alcotest.(check bool) "stable under pct" true (Explore.stable t)

  (* Fixed schedule count and seed: the sweep's coverage counters are a
     pure function of the config. *)
  let sweep_deterministic () =
    let config =
      { Explore.default_config with Explore.schedules = 4; ops = 120 }
    in
    let c () = Explore.counters [ Explore.run ~config (entry "wipe") ] in
    let a = c () and b = c () in
    Alcotest.(check (list (pair string int))) "same counters" a b

  (* A cache-enabled sweep must change nothing but wall-clock: same
     per-schedule canonical reports, same coverage counters, oracle
     still passing. A round-robin sweep (every schedule replays the same
     interleaving) guarantees the cache actually hits. *)
  let cache_changes_nothing () =
    let config =
      {
        Explore.default_config with
        Explore.schedules = 5;
        policy = Explore.Round_robin;
        ops = 120;
      }
    in
    let plain = Explore.run ~config (entry "fast-fair") in
    let cache = Hawkset.Result_cache.create () in
    let cached =
      Explore.run
        ~config:{ config with Explore.cache = Some cache }
        (entry "fast-fair")
    in
    Alcotest.(check bool) "stable with cache" true (Explore.stable cached);
    Alcotest.(check (list (pair string int)))
      "coverage counters identical"
      (Explore.counters [ plain ])
      (Explore.counters [ cached ]);
    List.iter2
      (fun (a : Explore.schedule_result) (b : Explore.schedule_result) ->
        Alcotest.(check (list (pair string string)))
          (Printf.sprintf "schedule %d canonical identical" a.Explore.s_index)
          a.Explore.s_canonical b.Explore.s_canonical)
      plain.Explore.x_results cached.Explore.x_results;
    let stat name =
      Option.value ~default:0
        (List.assoc_opt name (Hawkset.Result_cache.stats cache))
    in
    (* Sequential sweep of 5 identical schedules: 1 miss, 4 hits. *)
    Alcotest.(check int) "hits" 4 (stat "cache.hits");
    Alcotest.(check int) "misses" 1 (stat "cache.misses");
    Alcotest.(check int) "entries" 1 (stat "cache.entries")

  let policy_kind_strings () =
    List.iter
      (fun s ->
        match Explore.policy_kind_of_string s with
        | Ok k ->
            Alcotest.(check string)
              "round-trips" s
              (Explore.policy_kind_to_string k)
        | Error e -> Alcotest.fail e)
      [ "random"; "round-robin"; "delay"; "pct"; "all" ];
    Alcotest.(check bool) "unknown rejected" true
      (Result.is_error (Explore.policy_kind_of_string "fifo"))

  let tests =
    [
      Alcotest.test_case "oracle: fast-fair" `Slow
        (sweep_passes ~outruns_pmrace:true "fast-fair");
      Alcotest.test_case "oracle: p-masstree" `Slow (sweep_passes "p-masstree");
      Alcotest.test_case "oracle: pct-only" `Slow pct_sweep_passes;
      Alcotest.test_case "sweep deterministic" `Slow sweep_deterministic;
      Alcotest.test_case "cache changes nothing" `Slow cache_changes_nothing;
      Alcotest.test_case "policy kind strings" `Quick policy_kind_strings;
    ]
end

module Fixture_tests = struct
  let fixture f = Filename.concat "fixtures" f

  let fixtures =
    [
      "crash-fast-fair-fence74.trace";
      "explore-madfs-s0.trace";
      "explore-madfs-s2.trace";
    ]

  (* Every committed dump fixture carries a checksum trailer that still
     verifies, and the strict loader accepts it. *)
  let checksums_verify () =
    List.iter
      (fun f ->
        let t = Trace.Trace_io.load_tolerant (fixture f) in
        Alcotest.(check bool) (f ^ ": trailer verified") true
          (t.Trace.Trace_io.checksum = `Verified);
        Alcotest.(check int) (f ^ ": nothing dropped") 0
          t.Trace.Trace_io.dropped_lines;
        Alcotest.(check bool) (f ^ ": non-empty") true
          (t.Trace.Trace_io.salvaged_events > 0);
        Alcotest.(check int)
          (f ^ ": strict load agrees")
          t.Trace.Trace_io.salvaged_events
          (Trace.Tracebuf.length (Trace.Trace_io.load (fixture f))))
      fixtures

  (* The crash fixture is a damaged-point prefix: the pipeline must still
     report fast-fair's sibling-pointer race from it — the detector's
     prediction on the very trace whose image recovery found damaged. *)
  let crash_fixture_attributes () =
    let trace = Trace.Trace_io.load (fixture "crash-fast-fair-fence74.trace") in
    let races = Hawkset.Pipeline.races trace in
    Alcotest.(check bool) "bug1 reported on the crashed prefix" true
      (Pmapps.Ground_truth.bug_found ~bugs:(entry "fast-fair").R.bugs races 1)

  (* Truncation (lost trailer) downgrades to a salvage, not a failure,
     and the salvaged prefix still analyses. *)
  let with_mangled f ~mangle k =
    let ic = open_in_bin (fixture f) in
    let n = in_channel_length ic in
    let bytes = really_input_string ic n in
    close_in ic;
    let mangled = mangle bytes in
    let tmp = Filename.temp_file "hawkset_mangled" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove tmp)
      (fun () ->
        let oc = open_out_bin tmp in
        output_string oc mangled;
        close_out oc;
        k (Trace.Trace_io.load_tolerant tmp))

  let salvages_truncation () =
    List.iter
      (fun f ->
        let full = Trace.Tracebuf.length (Trace.Trace_io.load (fixture f)) in
        with_mangled f
          ~mangle:(fun s -> String.sub s 0 (String.length s * 7 / 10))
          (fun t ->
            Alcotest.(check bool) (f ^ ": trailer gone") true
              (t.Trace.Trace_io.checksum <> `Verified);
            Alcotest.(check bool) (f ^ ": salvaged a prefix") true
              (t.Trace.Trace_io.salvaged_events > 0
              && t.Trace.Trace_io.salvaged_events < full);
            (* The salvaged prefix is still a valid trace. *)
            let races =
              Hawkset.Pipeline.races t.Trace.Trace_io.salvaged
            in
            ignore (Hawkset.Report.count races)))
      fixtures

  let salvages_corruption () =
    (* Overwrite a byte mid-file: the loader keeps the prefix before the
       malformed line and reports what it dropped. *)
    with_mangled "explore-madfs-s0.trace"
      ~mangle:(fun s ->
        let b = Bytes.of_string s in
        Bytes.set b (Bytes.length b / 2) '\001';
        Bytes.to_string b)
      (fun t ->
        Alcotest.(check bool) "something dropped" true
          (t.Trace.Trace_io.dropped_lines > 0);
        Alcotest.(check bool) "checksum not verified" true
          (t.Trace.Trace_io.checksum <> `Verified);
        Alcotest.(check bool) "prefix salvaged" true
          (t.Trace.Trace_io.salvaged_events > 0))

  (* The explore fixtures regenerate bit-for-bit from their (app, config,
     index) coordinates — the dump machinery is as deterministic as the
     schedules it records. The committed fixture is v1 text and a dump
     is v2, so the dump must equal the fixture re-saved. *)
  let fixture_regenerates () =
    let config = { Explore.default_config with Explore.ops = 20 } in
    let tmp = Filename.temp_file "hawkset_regen" ".trace" in
    let resaved = Filename.temp_file "hawkset_resaved" ".trace" in
    Fun.protect
      ~finally:(fun () ->
        Sys.remove tmp;
        Sys.remove resaved)
      (fun () ->
        match Explore.save_schedule ~config (entry "madfs") ~index:0 tmp with
        | None -> Alcotest.fail "schedule 0 failed to re-run"
        | Some _ ->
            let read f =
              let ic = open_in_bin f in
              let s = really_input_string ic (in_channel_length ic) in
              close_in ic;
              s
            in
            let committed =
              Trace.Trace_io.load (fixture "explore-madfs-s0.trace")
            in
            Trace.Trace_io.save resaved committed;
            Alcotest.(check bool) "byte-identical to the re-saved fixture" true
              (String.equal (read tmp) (read resaved));
            Alcotest.(check string) "same fingerprint"
              (Trace.Trace_io.fingerprint committed)
              (Trace.Trace_io.fingerprint (Trace.Trace_io.load tmp)))

  let tests =
    [
      Alcotest.test_case "fixture checksums verify" `Quick checksums_verify;
      Alcotest.test_case "crash fixture attributes bug1" `Quick
        crash_fixture_attributes;
      Alcotest.test_case "truncation salvages" `Quick salvages_truncation;
      Alcotest.test_case "corruption salvages" `Quick salvages_corruption;
      Alcotest.test_case "fixtures regenerate byte-identically" `Slow
        fixture_regenerates;
    ]
end

let () =
  Alcotest.run "explore"
    [
      ("determinism", Determinism_tests.tests);
      ("oracle", Oracle_tests.tests);
      ("fixtures", Fixture_tests.tests);
    ]
