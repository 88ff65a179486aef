(* The result cache: probe/insert semantics, the config fingerprint's
   inclusion/exclusion contract, the two source keys (trace and job),
   [run_cached] (the call every front end goes through) and the journal
   persistence roundtrip (including its tolerance of damage, other
   schemas and other builds). *)

module RC = Hawkset.Result_cache

let entry ?(json = {|{"schema":"x","races":[]}|})
    ?(canonical = [ ("a.ml:1", "b.ml:2"); ("c.ml:3", "d.ml:4") ]) () =
  { RC.e_races_json = json; e_canonical = canonical }

let fp16 s = Printf.sprintf "t:%016x" (Hashtbl.hash s land 0xFFFFFF)
let check_entry msg a b =
  Alcotest.(check string) (msg ^ " json") a.RC.e_races_json b.RC.e_races_json;
  Alcotest.(check (list (pair string string)))
    (msg ^ " canonical") a.RC.e_canonical b.RC.e_canonical

let with_tmp f =
  let path = Filename.temp_file "hawkset_cache" ".jnl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

module Basic = struct
  let find_miss_then_hit () =
    let c = RC.create () in
    Alcotest.(check bool) "cold miss" true
      (RC.find c ~key:(fp16 "t1") ~config_fp:(fp16 "c1") = None);
    RC.add c ~key:(fp16 "t1") ~config_fp:(fp16 "c1") (entry ());
    (match RC.find c ~key:(fp16 "t1") ~config_fp:(fp16 "c1") with
    | None -> Alcotest.fail "expected hit"
    | Some e -> check_entry "hit" (entry ()) e);
    Alcotest.(check int) "length" 1 (RC.length c)

  let key_is_both_fingerprints () =
    let c = RC.create () in
    RC.add c ~key:(fp16 "t1") ~config_fp:(fp16 "c1") (entry ());
    Alcotest.(check bool) "same trace, other config misses" true
      (RC.find c ~key:(fp16 "t1") ~config_fp:(fp16 "c2") = None);
    Alcotest.(check bool) "other trace, same config misses" true
      (RC.find c ~key:(fp16 "t2") ~config_fp:(fp16 "c1") = None)

  let first_add_wins () =
    let c = RC.create () in
    RC.add c ~key:(fp16 "t") ~config_fp:(fp16 "c") (entry ~json:"first" ());
    RC.add c ~key:(fp16 "t") ~config_fp:(fp16 "c") (entry ~json:"second" ());
    Alcotest.(check int) "no duplicate row" 1 (RC.length c);
    match RC.find c ~key:(fp16 "t") ~config_fp:(fp16 "c") with
    | Some e -> Alcotest.(check string) "first kept" "first" e.RC.e_races_json
    | None -> Alcotest.fail "expected hit"

  let stats_shape () =
    let c = RC.create () in
    RC.add c ~key:(fp16 "t") ~config_fp:(fp16 "c") (entry ());
    Alcotest.(check (list string)) "sorted keys"
      [ "cache.bytes"; "cache.entries"; "cache.hits"; "cache.misses" ]
      (List.map fst (RC.stats c));
    let stat name =
      Option.value ~default:(-1) (List.assoc_opt name (RC.stats c))
    in
    Alcotest.(check int) "one entry" 1 (stat "cache.entries");
    Alcotest.(check bool) "bytes counted" true (stat "cache.bytes" > 0)

  let tests =
    [
      Alcotest.test_case "find miss then hit" `Quick find_miss_then_hit;
      Alcotest.test_case "key is (trace, config)" `Quick
        key_is_both_fingerprints;
      Alcotest.test_case "first add wins" `Quick first_add_wins;
      Alcotest.test_case "stats shape" `Quick stats_shape;
    ]
end

module Config_fp = struct
  let stable () =
    let a = RC.config_fingerprint Hawkset.Pipeline.default in
    let b = RC.config_fingerprint Hawkset.Pipeline.default in
    Alcotest.(check string) "deterministic" a b;
    Alcotest.(check int) "16 hex digits" 16 (String.length a)

  let semantic_knobs_included () =
    let base = Hawkset.Pipeline.default in
    Alcotest.(check bool) "event budget changes key" true
      (RC.config_fingerprint base
      <> RC.config_fingerprint
           { base with Hawkset.Pipeline.event_budget = Some 100 })

  let tests =
    [
      Alcotest.test_case "stable" `Quick stable;
      Alcotest.test_case "semantic knobs included" `Quick
        semantic_knobs_included;
    ]
end

module Run_cached = struct
  let trace () =
    Trace.Trace_io.load (Filename.concat "fixtures" "crash-fast-fair-fence74.trace")

  let stat c name =
    Option.value ~default:(-1) (List.assoc_opt name (RC.stats c))

  let truncated_never_stored () =
    let trace = trace () in
    let config =
      { Hawkset.Pipeline.default with
        event_budget = Some (Trace.Tracebuf.length trace / 2) }
    in
    let c = RC.create () in
    for call = 1 to 2 do
      let _, truncs = RC.run_cached ~cache:c ~config (RC.Trace trace) in
      Alcotest.(check bool)
        (Printf.sprintf "call %d truncated" call)
        true (truncs > 0)
    done;
    Alcotest.(check int) "nothing stored" 0 (stat c "cache.entries");
    Alcotest.(check int) "both calls missed" 2 (stat c "cache.misses")

  let one_entry_serves_every_caller () =
    (* Explore analyses under the default config; batch workers carry
       their wall budget as stage deadlines. Deadlines are not part of the
       key, so the batch call hits explore's entry — and the bytes are
       what an uncached run renders. *)
    let trace = trace () in
    let explore_config = Hawkset.Pipeline.default in
    let batch_config =
      { Hawkset.Pipeline.default with
        collect_deadline_s = Some 600.;
        analyse_deadline_s = Some 600. }
    in
    let c = RC.create () in
    let cold, _ =
      RC.run_cached ~cache:c ~config:explore_config (RC.Trace trace)
    in
    let warm, truncs =
      RC.run_cached ~cache:c ~config:batch_config (RC.Trace trace)
    in
    Alcotest.(check int) "no truncation" 0 truncs;
    Alcotest.(check int) "second call hit" 1 (stat c "cache.hits");
    Alcotest.(check int) "one entry" 1 (stat c "cache.entries");
    check_entry "warm = cold" cold warm;
    let uncached = Hawkset.Pipeline.run ~config:explore_config trace in
    Alcotest.(check string) "bytes = uncached Report.to_json"
      (Hawkset.Report.to_json uncached.Hawkset.Pipeline.races)
      warm.RC.e_races_json

  let tests =
    [
      Alcotest.test_case "truncated result never stored" `Quick
        truncated_never_stored;
      Alcotest.test_case "one entry serves every caller" `Quick
        one_entry_serves_every_caller;
    ]
end

module Job_key = struct
  let job ?(app = "fast-fair") ?(seed = 1) ?(policy = "random") ?(ops = 200)
      () =
    { Supervise.j_id = 0; j_app = app; j_seed = seed; j_policy = policy;
      j_ops = ops }

  let key j = RC.source_key (Supervise.job_source j)
  let trace = Run_cached.trace

  let counting tr =
    let n = ref 0 in
    (n, fun () -> incr n; tr)

  let inputs_change_key () =
    let base = key (job ()) in
    Alcotest.(check bool) "prefixed" true (String.sub base 0 2 = "j:");
    List.iter
      (fun (what, j) ->
        Alcotest.(check bool) (what ^ " changes key") true (key j <> base))
      [
        ("app", job ~app:"p-clht" ());
        ("ops", job ~ops:201 ());
        ("seed", job ~seed:2 ());
        ("policy kind", job ~policy:"pct" ());
      ];
    let policies =
      Machine.Sched.
        [
          Random_interleave;
          Round_robin;
          Pct { depth = 3 };
          Pct { depth = 4 };
          Delay_injection { probability = 0.05; duration = 40 };
          Delay_injection { probability = 0.05000001; duration = 40 };
          Delay_injection { probability = 0.05; duration = 41 };
          Targeted_delay { store_loc = "a.ml:1"; duration = 40 };
          Targeted_delay { store_loc = "a.ml:2"; duration = 40 };
          Scripted [| 1; 2 |];
          Scripted [| 12 |];
        ]
    in
    let keys = List.map Supervise.policy_key policies in
    Alcotest.(check int) "every policy parameter changes the key"
      (List.length policies)
      (List.length (List.sort_uniq String.compare keys));
    let configs =
      Hawkset.Pipeline.
        [ default; { default with irh = false }; { default with eadr = true } ]
    in
    Alcotest.(check int) "analysis flags change the key" 3
      (List.length
         (List.sort_uniq String.compare (List.map RC.config_fingerprint configs)))

  let spellings_share_key () =
    Alcotest.(check string) "round_robin = round-robin"
      (key (job ~policy:"round-robin" ()))
      (key (job ~policy:"round_robin" ()));
    Alcotest.(check string) "fast_fair = fast-fair"
      (key (job ~app:"fast-fair" ()))
      (key (job ~app:"fast_fair" ()));
    Alcotest.(check string) "P-ART ops clamped: 1000 = 5000"
      (key (job ~app:"p-art" ~ops:1000 ()))
      (key (job ~app:"p-art" ~ops:5000 ()))

  let prefixes_never_collide () =
    (* A job whose inputs are the trace's canonical serialization hashes
       to exactly the trace fingerprint; the prefixes still keep the two
       keys, and so their entries, apart. *)
    let tr = trace () in
    let inputs =
      String.concat ""
        (List.map
           (fun ev -> Trace.Trace_io.event_to_line ev ^ "\n")
           (Trace.Tracebuf.to_list tr))
    in
    let n, execute = counting tr in
    let tkey = RC.source_key (RC.Trace tr)
    and jkey = RC.source_key (RC.Job { inputs; execute }) in
    Alcotest.(check string) "same hash"
      (String.sub tkey 2 16) (String.sub jkey 2 16);
    Alcotest.(check bool) "different keys" true (tkey <> jkey);
    let c = RC.create () in
    ignore (RC.run_cached ~cache:c ~config:Hawkset.Pipeline.default (RC.Trace tr));
    ignore
      (RC.run_cached ~cache:c ~config:Hawkset.Pipeline.default
         (RC.Job { inputs; execute }));
    Alcotest.(check int) "job missed the trace entry" 1 !n;
    Alcotest.(check int) "two entries" 2 (RC.length c)

  let job_miss_stores_trace_entry () =
    let tr = trace () in
    let config = Hawkset.Pipeline.default in
    let reference, _ = RC.run_cached ~config (RC.Trace tr) in
    let c = RC.create () in
    let n, execute = counting tr in
    let cold, _ =
      RC.run_cached ~cache:c ~config (RC.Job { inputs = "fixture"; execute })
    in
    check_entry "job miss = trace run" reference cold;
    match RC.find c ~key:(RC.source_key (RC.Job { inputs = "fixture"; execute }))
            ~config_fp:(RC.config_fingerprint config) with
    | Some stored ->
        check_entry "stored under the job key" reference stored;
        Alcotest.(check int) "executed once" 1 !n
    | None -> Alcotest.fail "job miss stored nothing"

  let hit_never_executes () =
    (* A hit must not run [execute] (the app), nor fingerprint a trace —
       it holds none, since only [execute] yields one — nor enter the
       guard. Another analysis config is another key: it executes. *)
    let tr = trace () in
    let c = RC.create () in
    let n, execute = counting tr in
    let guarded = ref 0 in
    let guard f = incr guarded; f () in
    let run config =
      RC.run_cached ~cache:c ~guard ~config
        (RC.Job { inputs = "app=x;ops=1"; execute })
    in
    let cold, _ = run Hawkset.Pipeline.default in
    let warm, truncs = run Hawkset.Pipeline.default in
    check_entry "warm = cold" cold warm;
    Alcotest.(check int) "no truncation" 0 truncs;
    Alcotest.(check int) "hit did not execute" 1 !n;
    Alcotest.(check int) "hit ran outside the guard" 1 !guarded;
    Alcotest.(check int) "one hit" 1 (Run_cached.stat c "cache.hits");
    ignore (run { Hawkset.Pipeline.default with irh = false });
    Alcotest.(check int) "irh=false executes again" 2 !n

  let tests =
    [
      Alcotest.test_case "inputs change the key" `Quick inputs_change_key;
      Alcotest.test_case "spellings share a key" `Quick spellings_share_key;
      Alcotest.test_case "t: and j: never collide" `Quick
        prefixes_never_collide;
      Alcotest.test_case "job miss stores the trace entry" `Quick
        job_miss_stores_trace_entry;
      Alcotest.test_case "hit never executes" `Quick hit_never_executes;
    ]
end

module Persist = struct
  let roundtrip () =
    let c = RC.create () in
    RC.add c ~key:(fp16 "t1") ~config_fp:(fp16 "c1") (entry ());
    RC.add c ~key:(fp16 "t2") ~config_fp:(fp16 "c1")
      (entry ~json:{|{"races":[1]}|} ~canonical:[] ());
    with_tmp (fun path ->
        RC.save c path;
        let loaded = RC.load path in
        Alcotest.(check int) "both entries" 2 (RC.length loaded);
        (match RC.find loaded ~key:(fp16 "t1") ~config_fp:(fp16 "c1") with
        | Some e -> check_entry "entry 1" (entry ()) e
        | None -> Alcotest.fail "entry 1 lost");
        match RC.find loaded ~key:(fp16 "t2") ~config_fp:(fp16 "c1") with
        | Some e ->
            check_entry "entry 2 (empty lists)"
              (entry ~json:{|{"races":[1]}|} ~canonical:[] ())
              e
        | None -> Alcotest.fail "entry 2 lost")

  let missing_file_is_empty () =
    let c = RC.load "/nonexistent/hawkset_cache.jnl" in
    Alcotest.(check int) "empty" 0 (RC.length c)

  let torn_tail_costs_tail_only () =
    let c = RC.create () in
    RC.add c ~key:(fp16 "t1") ~config_fp:(fp16 "c1") (entry ());
    RC.add c ~key:(fp16 "t2") ~config_fp:(fp16 "c1") (entry ());
    with_tmp (fun path ->
        RC.save c path;
        let full = In_channel.with_open_bin path In_channel.input_all in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc
              (String.sub full 0 (String.length full - 9)));
        let loaded = RC.load path in
        Alcotest.(check int) "valid prefix kept" 1 (RC.length loaded))

  let old_schema_is_empty () =
    (* The entry below would unframe under /2; the /1 header alone makes
       the file an empty cache. *)
    with_tmp (fun path ->
        let w = Trace.Journal.create path in
        Trace.Journal.add w
          { Trace.Journal.tag = "cache"; fields = [ "hawkset.result_cache/1" ];
            payload = None };
        Trace.Journal.add w
          { Trace.Journal.tag = "entry"; fields = [ fp16 "t1"; fp16 "c1" ];
            payload = Some "2\n{}\nC a.ml:1 b.ml:2\n" };
        Trace.Journal.close w;
        Alcotest.(check int) "empty" 0 (RC.length (RC.load path)))

  (* [path]'s records with the header's fields replaced. *)
  let rewrite_header path fields =
    let records = (Trace.Journal.load path).Trace.Journal.l_records in
    let w = Trace.Journal.create path in
    List.iter
      (fun (r : Trace.Journal.record) ->
        Trace.Journal.add w
          (if r.Trace.Journal.tag = "cache" then { r with fields } else r))
      records;
    Trace.Journal.close w

  let other_build_or_schema_is_empty () =
    let c = RC.create () in
    RC.add c ~key:(fp16 "t1") ~config_fp:(fp16 "c1") (entry ());
    with_tmp (fun path ->
        RC.save c path;
        let header =
          match (Trace.Journal.load path).Trace.Journal.l_records with
          | { Trace.Journal.tag = "cache"; fields; _ } :: _ -> fields
          | _ -> Alcotest.fail "no header"
        in
        (match header with
        | [ schema; build ] ->
            Alcotest.(check string) "schema" "hawkset.result_cache/3" schema;
            Alcotest.(check int) "build id is an MD5" 32 (String.length build)
        | _ -> Alcotest.fail "header is not [schema; build]");
        rewrite_header path header;
        Alcotest.(check int) "same build loads" 1 (RC.length (RC.load path));
        rewrite_header path
          [ "hawkset.result_cache/3"; String.make 32 '0' ];
        Alcotest.(check int) "foreign build is empty" 0
          (RC.length (RC.load path));
        rewrite_header path [ "hawkset.result_cache/2" ];
        Alcotest.(check int) "/2 header is empty" 0 (RC.length (RC.load path)))

  let tests =
    [
      Alcotest.test_case "save/load roundtrip" `Quick roundtrip;
      Alcotest.test_case "other build or schema loads empty" `Quick
        other_build_or_schema_is_empty;
      Alcotest.test_case "missing file is empty" `Quick missing_file_is_empty;
      Alcotest.test_case "torn tail costs the tail only" `Quick
        torn_tail_costs_tail_only;
      Alcotest.test_case "old schema loads empty" `Quick old_schema_is_empty;
    ]
end

let () =
  Alcotest.run "result_cache"
    [
      ("basic", Basic.tests);
      ("config_fp", Config_fp.tests);
      ("run_cached", Run_cached.tests);
      ("job_key", Job_key.tests);
      ("persist", Persist.tests);
    ]
