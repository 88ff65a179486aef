(* Tests for the timeline profiler and bug provenance: fixed-seed lane
   signatures are byte-identical (the event-sequence determinism
   contract), ring overflow drops new events without corrupting recorded
   ones, the Chrome-trace export is valid JSON with per-lane monotone
   timestamps, and every analysis report carries a witness. *)

let contains = Test_util.contains

let entry =
  match Pmapps.Registry.find "fast-fair" with
  | Some e -> e
  | None -> Alcotest.fail "fast-fair not registered"

(* Every test leaves the timeline disabled and empty at default capacity,
   so test order never matters. *)
let with_timeline f =
  Obs.Timeline.set_capacity 8192;
  Obs.Timeline.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Timeline.set_enabled false;
      Obs.Timeline.set_capacity 8192)
    f

let with_fake_clock src f =
  Obs.Clock.set_source src;
  Fun.protect ~finally:(fun () -> Obs.Clock.set_source Unix.gettimeofday) f

let lane_signatures () =
  List.map
    (fun lane -> (lane, Obs.Timeline.signature lane))
    (Obs.Timeline.used_lanes ())

let pipeline_signatures ~seed ~ops () =
  let report = entry.Pmapps.Registry.run ~seed ~ops () in
  Obs.Timeline.reset ();
  let _ = Hawkset.Pipeline.run report.Machine.Sched.trace in
  lane_signatures ()

(* A two-worker exploration of two schedules: {!Hawkset.Domain_pool.map}
   keeps task [i] on lane [i], so schedule 0's pipeline lands on lane 0
   (the caller) and schedule 1's on lane 1. *)
let explore_signatures ~seed ~ops () =
  Obs.Timeline.reset ();
  let config =
    { Explore.default_config with Explore.schedules = 2; jobs = 2; seed; ops }
  in
  ignore (Explore.run ~config entry : Explore.t);
  lane_signatures ()

(* --- ring behaviour --------------------------------------------------- *)

module Ring_tests = struct
  let overflow_drops_new () =
    with_timeline (fun () ->
        Obs.Timeline.set_capacity 8;
        let h = Obs.Timeline.name "ring_test" in
        for i = 0 to 10 do
          Obs.Timeline.instant h ~arg:i
        done;
        Alcotest.(check int) "drop counter" 3 (Obs.Timeline.dropped 0);
        let evs = Obs.Timeline.events 0 in
        Alcotest.(check int) "earlier events intact" 8 (List.length evs);
        List.iteri
          (fun i (e : Obs.Timeline.event) ->
            Alcotest.(check string) "name" "ring_test" e.Obs.Timeline.ev_name;
            Alcotest.(check int) "arg in order" i e.Obs.Timeline.ev_arg)
          evs;
        Alcotest.(check bool)
          "signature records the drops" true
          (contains ~needle:"dropped 3" (Obs.Timeline.signature 0)))

  let disabled_records_nothing () =
    Obs.Timeline.reset ();
    Obs.Timeline.set_enabled false;
    Obs.Timeline.instant (Obs.Timeline.name "off") ~arg:1;
    Alcotest.(check (list int)) "no lanes" [] (Obs.Timeline.used_lanes ())

  let monotone_clamp () =
    (* A clock stepping backwards must never produce an out-of-order
       lane: timestamps clamp to the lane's last. *)
    let t = ref 100.0 in
    with_fake_clock
      (fun () ->
        t := !t -. 1.0;
        !t)
      (fun () ->
        with_timeline (fun () ->
            Obs.Timeline.reset ();
            let h = Obs.Timeline.name "clamp" in
            for i = 0 to 4 do
              Obs.Timeline.instant h ~arg:i
            done;
            let ts =
              List.map
                (fun (e : Obs.Timeline.event) -> e.Obs.Timeline.ev_ts)
                (Obs.Timeline.events 0)
            in
            Alcotest.(check bool)
              "timestamps non-decreasing" true
              (ts = List.sort compare ts)))

  let signature_ignores_timestamps () =
    let record_with src =
      with_fake_clock src (fun () ->
          with_timeline (fun () ->
              Obs.Timeline.reset ();
              let h = Obs.Timeline.name "sig" in
              Obs.Timeline.begin_ h ~arg:7;
              Obs.Timeline.instant h ~arg:8;
              Obs.Timeline.end_ h ~arg:9;
              Obs.Timeline.signature 0))
    in
    let fast = ref 0.0 in
    let slow = ref 1000.0 in
    let s1 =
      record_with (fun () ->
          fast := !fast +. 0.001;
          !fast)
    in
    let s2 =
      record_with (fun () ->
          slow := !slow +. 42.0;
          !slow)
    in
    Alcotest.(check string) "signatures clock-independent" s1 s2;
    Alcotest.(check string)
      "signature shape" "B sig 7\nI sig 8\nE sig 9\ndropped 0\n" s1

  let lane_binding () =
    with_timeline (fun () ->
        Obs.Timeline.reset ();
        let h = Obs.Timeline.name "lane_test" in
        Obs.Timeline.instant h ~arg:0;
        Obs.Timeline.with_lane 3 (fun () -> Obs.Timeline.instant h ~arg:3);
        Obs.Timeline.instant h ~arg:0;
        Alcotest.(check int) "restored lane" 0 (Obs.Timeline.current_lane ());
        Alcotest.(check (list int))
          "used lanes" [ 0; 3 ]
          (Obs.Timeline.used_lanes ());
        Alcotest.(check int) "lane 0 events" 2
          (List.length (Obs.Timeline.events 0));
        Alcotest.(check int) "lane 3 events" 1
          (List.length (Obs.Timeline.events 3)))

  let tests =
    [
      Alcotest.test_case "overflow drops new, keeps old" `Quick
        overflow_drops_new;
      Alcotest.test_case "disabled records nothing" `Quick
        disabled_records_nothing;
      Alcotest.test_case "monotone clamp" `Quick monotone_clamp;
      Alcotest.test_case "signature ignores timestamps" `Quick
        signature_ignores_timestamps;
      Alcotest.test_case "lane binding" `Quick lane_binding;
    ]
end

(* --- fixed-seed determinism ------------------------------------------- *)

module Determinism_tests = struct
  (* The acceptance criterion: two same-seed runs produce byte-identical
     per-lane event sequences (timestamps excluded by {!signature}). *)
  let same_seed_same_signatures () =
    with_timeline (fun () ->
        let s1 = explore_signatures ~seed:7 ~ops:400 () in
        let s2 = explore_signatures ~seed:7 ~ops:400 () in
        Alcotest.(check int) "two lanes used" 2 (List.length s1);
        Alcotest.(check (list (pair int string)))
          "per-lane signatures byte-identical" s1 s2)

  let per_lane_shape () =
    with_timeline (fun () ->
        let sigs = explore_signatures ~seed:7 ~ops:400 () in
        let shape = Str.regexp "^B pipeline [0-9]+$" in
        let pipeline_runs lane =
          List.length
            (List.filter
               (fun l -> Str.string_match shape l 0)
               (String.split_on_char '\n' lane))
        in
        List.iter
          (fun (lane, signature) ->
            List.iter
              (fun needle ->
                Alcotest.(check bool)
                  (Printf.sprintf "lane %d has %s" lane needle)
                  true
                  (contains ~needle signature))
              [
                "B pipeline"; "B pipeline.collect"; "E pipeline.collect";
                "B pipeline.analyse"; "E pipeline.analyse"; "E pipeline";
              ];
            (* Each lane ran exactly its own schedule's pipeline. *)
            Alcotest.(check int)
              (Printf.sprintf "lane %d: one pipeline run" lane)
              1 (pipeline_runs signature))
          sigs)

  let sequential_uses_one_lane () =
    with_timeline (fun () ->
        let sigs = pipeline_signatures ~seed:7 ~ops:400 () in
        Alcotest.(check (list int)) "only the caller lane" [ 0 ]
          (List.map fst sigs);
        Alcotest.(check bool) "analyse span" true
          (contains ~needle:"B pipeline.analyse" (List.assoc 0 sigs)))

  let tests =
    [
      Alcotest.test_case "same seed, same signatures" `Slow
        same_seed_same_signatures;
      Alcotest.test_case "per-lane event shape" `Slow per_lane_shape;
      Alcotest.test_case "pipeline stays on lane 0" `Slow
        sequential_uses_one_lane;
    ]
end

(* --- Chrome-trace export ---------------------------------------------- *)

module Mini_json = Test_util.Mini_json

module Export_tests = struct
  let export () =
    with_timeline (fun () ->
        ignore (explore_signatures ~seed:7 ~ops:400 ());
        Obs.Timeline.to_chrome_json ())

  let valid_json_and_monotone () =
    let raw = export () in
    let j = Mini_json.parse raw in
    let evs =
      match Mini_json.member "traceEvents" j with
      | Mini_json.Arr evs -> evs
      | _ -> Alcotest.fail "traceEvents not an array"
    in
    Alcotest.(check bool) "has events" true (List.length evs > 0);
    (* Per-lane timestamps are monotone in recording order. *)
    let last = Hashtbl.create 8 in
    let lanes = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let str_mem k =
          match Mini_json.member k e with
          | Mini_json.Str s -> s
          | _ -> Alcotest.fail (k ^ " not a string")
        in
        let num_mem k =
          match Mini_json.member k e with
          | Mini_json.Num x -> x
          | _ -> Alcotest.fail (k ^ " not a number")
        in
        let tid = int_of_float (num_mem "tid") in
        match str_mem "ph" with
        | "M" ->
            Alcotest.(check string) "metadata name" "thread_name"
              (str_mem "name");
            Hashtbl.replace lanes tid ()
        | "B" | "E" | "i" ->
            let ts = num_mem "ts" in
            Alcotest.(check bool) "ts non-negative" true (ts >= 0.0);
            (match Hashtbl.find_opt last tid with
            | Some prev ->
                Alcotest.(check bool)
                  (Printf.sprintf "lane %d monotone" tid)
                  true (ts >= prev)
            | None -> ());
            Hashtbl.replace last tid ts
        | ph -> Alcotest.fail ("unexpected ph " ^ ph))
      evs;
    (* One thread_name lane per pool domain: two workers -> lanes 0..1. *)
    Alcotest.(check int) "2 labelled lanes" 2 (Hashtbl.length lanes);
    List.iter
      (fun lane ->
        Alcotest.(check bool)
          (Printf.sprintf "lane %d labelled" lane)
          true (Hashtbl.mem lanes lane))
      [ 0; 1 ]

  let begin_end_nesting () =
    (* B/E events on a lane must balance like parentheses, or Perfetto
       renders garbage. *)
    let raw = export () in
    let j = Mini_json.parse raw in
    let evs =
      match Mini_json.member "traceEvents" j with
      | Mini_json.Arr evs -> evs
      | _ -> Alcotest.fail "traceEvents not an array"
    in
    let depth = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let tid =
          match Mini_json.member "tid" e with
          | Mini_json.Num x -> int_of_float x
          | _ -> Alcotest.fail "tid"
        in
        let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
        match Mini_json.member "ph" e with
        | Mini_json.Str "B" -> Hashtbl.replace depth tid (d + 1)
        | Mini_json.Str "E" ->
            Alcotest.(check bool) "E has a matching B" true (d > 0);
            Hashtbl.replace depth tid (d - 1)
        | _ -> ())
      evs;
    Hashtbl.iter
      (fun tid d ->
        Alcotest.(check int) (Printf.sprintf "lane %d balanced" tid) 0 d)
      depth

  let duration_gauges () =
    let fake = ref 0.0 in
    with_fake_clock
      (fun () ->
        fake := !fake +. 0.5;
        !fake)
      (fun () ->
        with_timeline (fun () ->
            Obs.Timeline.reset ();
            let h = Obs.Timeline.name "gauge_test" in
            Obs.Timeline.begin_ h;
            Obs.Timeline.end_ h;
            let gauges = Obs.Timeline.duration_gauges () in
            Alcotest.(check (option (float 1e-9)))
              "count" (Some 1.0)
              (List.assoc_opt "timeline.gauge_test.count" gauges);
            Alcotest.(check (option (float 1e-9)))
              "total" (Some 0.5)
              (List.assoc_opt "timeline.gauge_test.total_s" gauges);
            Alcotest.(check (option (float 1e-9)))
              "max" (Some 0.5)
              (List.assoc_opt "timeline.gauge_test.max_s" gauges)))

  let tests =
    [
      Alcotest.test_case "valid JSON, monotone per lane" `Slow
        valid_json_and_monotone;
      Alcotest.test_case "B/E balance per lane" `Slow begin_end_nesting;
      Alcotest.test_case "duration gauges" `Quick duration_gauges;
    ]
end

(* --- bug provenance --------------------------------------------------- *)

module Provenance_tests = struct
  let races () =
    let report = entry.Pmapps.Registry.run ~seed:7 ~ops:400 () in
    Hawkset.Pipeline.races report.Machine.Sched.trace

  let every_report_has_a_witness () =
    let races = races () in
    Alcotest.(check bool) "found races" true (Hawkset.Report.count races > 0);
    List.iter
      (fun (r : Hawkset.Report.race) ->
        match r.Hawkset.Report.witness with
        | Some w ->
            (* The effective lockset is an intersection of the store's:
               every effective lock was held at the store. *)
            List.iter
              (fun l ->
                Alcotest.(check bool) "eff subset of store" true
                  (List.mem l w.Hawkset.Report.wt_store_locks))
              w.Hawkset.Report.wt_eff_locks;
            (* The race test requires eff ∩ load = ∅. *)
            List.iter
              (fun l ->
                Alcotest.(check bool) "eff disjoint from load" true
                  (not (List.mem l w.Hawkset.Report.wt_load_locks)))
              w.Hawkset.Report.wt_eff_locks
        | None -> Alcotest.fail "report without witness")
      (Hawkset.Report.sorted races)

  let witness_in_json () =
    let j = Hawkset.Report.to_json (races ()) in
    List.iter
      (fun needle ->
        Alcotest.(check bool) ("json has " ^ needle) true (contains ~needle j))
      [
        {|"witness":{|}; {|"store_lockset":|}; {|"effective_lockset":|};
        {|"load_lockset":|}; {|"store_vclock":|}; {|"window_end_vclock":|};
        {|"load_vclock":|};
      ]

  let witness_identical_across_runs () =
    (* Witnesses are resolved from interned ids on deterministic paths,
       so the full JSON — provenance included — is byte-identical for
       two runs of the same seed. *)
    Alcotest.(check string)
      "to_json identical across same-seed runs"
      (Hawkset.Report.to_json (races ()))
      (Hawkset.Report.to_json (races ()))

  let pp_witness_renders () =
    let races = races () in
    match
      List.filter_map
        (fun (r : Hawkset.Report.race) -> r.Hawkset.Report.witness)
        (Hawkset.Report.sorted races)
    with
    | [] -> Alcotest.fail "no witness to render"
    | w :: _ ->
        let s = Format.asprintf "%a" Hawkset.Report.pp_witness w in
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("pp has " ^ needle) true
              (contains ~needle s))
          [ "witness:"; "effective lockset"; "store vclock"; "load vclock" ]

  let tests =
    [
      Alcotest.test_case "every report has a witness" `Slow
        every_report_has_a_witness;
      Alcotest.test_case "witness in to_json" `Slow witness_in_json;
      Alcotest.test_case "witness identical across runs" `Slow
        witness_identical_across_runs;
      Alcotest.test_case "pp_witness renders" `Slow pp_witness_renders;
    ]
end

let () =
  Alcotest.run "timeline"
    [
      ("ring", Ring_tests.tests);
      ("determinism", Determinism_tests.tests);
      ("export", Export_tests.tests);
      ("provenance", Provenance_tests.tests);
    ]
