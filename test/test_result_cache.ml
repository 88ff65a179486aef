(* The fingerprint-keyed result cache: probe/insert semantics, the
   config fingerprint's inclusion/exclusion contract, [run_cached] (the
   call every front end goes through) and the journal persistence
   roundtrip (including its tolerance of damage). *)

module RC = Hawkset.Result_cache

let entry ?(json = {|{"schema":"x","races":[]}|})
    ?(canonical = [ ("a.ml:1", "b.ml:2"); ("c.ml:3", "d.ml:4") ]) () =
  { RC.e_races_json = json; e_canonical = canonical }

let fp16 s = Printf.sprintf "%016x" (Hashtbl.hash s land 0xFFFFFF)
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
      (RC.find c ~trace_fp:(fp16 "t1") ~config_fp:(fp16 "c1") = None);
    RC.add c ~trace_fp:(fp16 "t1") ~config_fp:(fp16 "c1") (entry ());
    (match RC.find c ~trace_fp:(fp16 "t1") ~config_fp:(fp16 "c1") with
    | None -> Alcotest.fail "expected hit"
    | Some e -> check_entry "hit" (entry ()) e);
    Alcotest.(check int) "length" 1 (RC.length c)

  let key_is_both_fingerprints () =
    let c = RC.create () in
    RC.add c ~trace_fp:(fp16 "t1") ~config_fp:(fp16 "c1") (entry ());
    Alcotest.(check bool) "same trace, other config misses" true
      (RC.find c ~trace_fp:(fp16 "t1") ~config_fp:(fp16 "c2") = None);
    Alcotest.(check bool) "other trace, same config misses" true
      (RC.find c ~trace_fp:(fp16 "t2") ~config_fp:(fp16 "c1") = None)

  let first_add_wins () =
    let c = RC.create () in
    RC.add c ~trace_fp:(fp16 "t") ~config_fp:(fp16 "c") (entry ~json:"first" ());
    RC.add c ~trace_fp:(fp16 "t") ~config_fp:(fp16 "c") (entry ~json:"second" ());
    Alcotest.(check int) "no duplicate row" 1 (RC.length c);
    match RC.find c ~trace_fp:(fp16 "t") ~config_fp:(fp16 "c") with
    | Some e -> Alcotest.(check string) "first kept" "first" e.RC.e_races_json
    | None -> Alcotest.fail "expected hit"

  let stats_shape () =
    let c = RC.create () in
    RC.add c ~trace_fp:(fp16 "t") ~config_fp:(fp16 "c") (entry ());
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
      let _, truncs = RC.run_cached ~cache:c ~config trace in
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
    let cold, _ = RC.run_cached ~cache:c ~config:explore_config trace in
    let warm, truncs = RC.run_cached ~cache:c ~config:batch_config trace in
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

module Persist = struct
  let roundtrip () =
    let c = RC.create () in
    RC.add c ~trace_fp:(fp16 "t1") ~config_fp:(fp16 "c1") (entry ());
    RC.add c ~trace_fp:(fp16 "t2") ~config_fp:(fp16 "c1")
      (entry ~json:{|{"races":[1]}|} ~canonical:[] ());
    with_tmp (fun path ->
        RC.save c path;
        let loaded = RC.load path in
        Alcotest.(check int) "both entries" 2 (RC.length loaded);
        (match RC.find loaded ~trace_fp:(fp16 "t1") ~config_fp:(fp16 "c1") with
        | Some e -> check_entry "entry 1" (entry ()) e
        | None -> Alcotest.fail "entry 1 lost");
        match RC.find loaded ~trace_fp:(fp16 "t2") ~config_fp:(fp16 "c1") with
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
    RC.add c ~trace_fp:(fp16 "t1") ~config_fp:(fp16 "c1") (entry ());
    RC.add c ~trace_fp:(fp16 "t2") ~config_fp:(fp16 "c1") (entry ());
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

  let tests =
    [
      Alcotest.test_case "save/load roundtrip" `Quick roundtrip;
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
      ("persist", Persist.tests);
    ]
