(* Tests for the conformance fuzzer itself: the generated-trace fuzz
   smoke (production == executable specification on every config
   variant), the ddmin minimizer's contract, replay of the committed
   mutated-kernel reproducers, a live fault hunt, and the nine registry
   applications checked against the specification end to end. *)

module Conformance = Check.Conformance
module Gen = Check.Gen

let traces_budget =
  match Sys.getenv_opt "HAWKSET_CHECK_TRACES" with
  | Some s -> (try int_of_string s with _ -> 40)
  | None -> 40

(* --- generator sanity ------------------------------------------------- *)

module Gen_tests = struct
  (* Well-formedness the differential runner depends on: every lock
     released, children only run after their create, valid tids. *)
  let well_formed () =
    for seed = 0 to 49 do
      let t = Gen.trace ~seed () in
      let held = Hashtbl.create 8 in
      let started = Hashtbl.create 8 in
      Hashtbl.replace started (Trace.Tid.to_int Trace.Tid.main) ();
      let check_started tid =
        let tid = Trace.Tid.to_int tid in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: tid %d started" seed tid)
          true
          (Hashtbl.mem started tid)
      in
      List.iter
        (fun ev ->
          match (ev : Trace.Event.t) with
          | Trace.Event.Thread_create { parent; child } ->
              check_started parent;
              Hashtbl.replace started (Trace.Tid.to_int child) ()
          | Trace.Event.Thread_join { waiter; joined } ->
              check_started waiter;
              check_started joined
          | Trace.Event.Lock_acquire { tid; lock; _ } ->
              check_started tid;
              let k = (Trace.Tid.to_int tid, lock) in
              let d = Option.value ~default:0 (Hashtbl.find_opt held k) in
              Hashtbl.replace held k (d + 1)
          | Trace.Event.Lock_release { tid; lock; _ } ->
              (* Reentrant sections are legal; a release below depth 0
                 is not. *)
              let k = (Trace.Tid.to_int tid, lock) in
              let d = Option.value ~default:0 (Hashtbl.find_opt held k) in
              Alcotest.(check bool)
                (Printf.sprintf "seed %d: release of held lock" seed)
                true (d > 0);
              if d = 1 then Hashtbl.remove held k
              else Hashtbl.replace held k (d - 1)
          | Trace.Event.Store { tid; _ }
          | Trace.Event.Load { tid; _ }
          | Trace.Event.Flush { tid; _ }
          | Trace.Event.Fence { tid; _ } -> check_started tid)
        (Trace.Tracebuf.to_list t);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: all locks released" seed)
        0 (Hashtbl.length held)
    done

  let deterministic () =
    let lines t =
      String.concat "\n"
        (List.map Trace.Trace_io.event_to_line (Trace.Tracebuf.to_list t))
    in
    Alcotest.(check string)
      "same seed, same trace"
      (lines (Gen.trace ~seed:7 ()))
      (lines (Gen.trace ~seed:7 ()))

  let tests =
    [
      Alcotest.test_case "generated traces are well-formed" `Quick well_formed;
      Alcotest.test_case "generator is deterministic" `Quick deterministic;
    ]
end

(* --- fuzz smoke ------------------------------------------------------- *)

module Fuzz_tests = struct
  let zero_divergences () =
    let r = Conformance.fuzz ~traces:traces_budget ~seed:1000 () in
    Alcotest.(check int) "traces run" traces_budget r.Conformance.fz_traces;
    (* Per trace: 2 budgets x 1 pipeline + 1 cache. *)
    Alcotest.(check bool)
      "comparisons happened" true
      (r.Conformance.fz_comparisons >= 3 * traces_budget);
    (match r.Conformance.fz_failures with
    | [] -> ()
    | (seed, _, d) :: _ ->
        Alcotest.fail
          (Printf.sprintf "seed %d diverged on %s" seed d.Conformance.d_variant))

  (* The prefix variant hands the pipeline the whole trace and a budget,
     so the pipeline's own event-budget cut is what gets compared: one
     divergence check records exactly one truncation. *)
  let prefix_variant_cuts_in_pipeline () =
    let t = Gen.trace ~seed:1000 () in
    Alcotest.(check bool) "has a prefix variant" true
      (Trace.Tracebuf.length t > 3);
    let truncations () =
      Option.value ~default:0
        (List.assoc_opt "pipeline.truncations"
           (Obs.Registry.counters Obs.Registry.global))
    in
    let before = truncations () in
    Alcotest.(check int) "conformant" 0
      (List.length (Conformance.divergences t));
    Alcotest.(check int) "one event-budget cut" 1 (truncations () - before)

  let tests =
    [
      Alcotest.test_case "production == specification" `Slow zero_divergences;
      Alcotest.test_case "prefix variant cuts in the pipeline" `Quick
        prefix_variant_cuts_in_pipeline;
    ]
end

(* --- minimizer -------------------------------------------------------- *)

module Minimize_tests = struct
  (* A synthetic predicate exercises ddmin in isolation: "contains a
     store at 128 and a load at 136".  Minimal failing traces have
     exactly those two events, whatever padding surrounds them. *)
  let pred trace =
    let evs = Trace.Tracebuf.to_list trace in
    List.exists
      (function Trace.Event.Store { addr = 128; _ } -> true | _ -> false)
      evs
    && List.exists
         (function Trace.Event.Load { addr = 136; _ } -> true | _ -> false)
         evs

  let reduces_to_minimum () =
    let t = Gen.trace ~max_events:48 ~seed:5 () in
    (* Plant the two needles among the generated haystack. *)
    let site = Trace.Site.v "plant.ml" 1 in
    let tid = Trace.Tid.main in
    let evs =
      Trace.Event.Store { tid; addr = 128; size = 8; site; non_temporal = false }
      :: Trace.Tracebuf.to_list t
      @ [ Trace.Event.Load { tid; addr = 136; size = 8; site } ]
    in
    let minimal = Conformance.minimize ~failing:pred (Trace.Tracebuf.of_list evs) in
    Alcotest.(check int) "exactly the two needles" 2
      (Trace.Tracebuf.length minimal);
    Alcotest.(check bool) "still fails" true (pred minimal)

  let rejects_passing_input () =
    let t = Trace.Tracebuf.of_list [] in
    match Conformance.minimize ~failing:pred t with
    | _ -> Alcotest.fail "minimize accepted a passing trace"
    | exception Invalid_argument _ -> ()

  (* 1-minimality on a real divergence: removing any single event from a
     committed reproducer makes it pass again. *)
  let committed_fixture_is_1_minimal () =
    let fault = Hawkset.Fault.Publish_before_touch in
    let path = "fixtures/mutate-" ^ Hawkset.Fault.name fault ^ ".trace" in
    let t = Trace.Trace_io.load path in
    Hawkset.Fault.with_fault fault (fun () ->
        Alcotest.(check bool) "fixture diverges armed" true
          (Conformance.failing t);
        let evs = Trace.Tracebuf.to_list t in
        List.iteri
          (fun i _ ->
            let without =
              List.filteri (fun j _ -> j <> i) evs |> Trace.Tracebuf.of_list
            in
            Alcotest.(check bool)
              (Printf.sprintf "dropping event %d makes it pass" i)
              false
              (Conformance.failing without))
          evs)

  let tests =
    [
      Alcotest.test_case "ddmin finds the 2-event core" `Quick
        reduces_to_minimum;
      Alcotest.test_case "rejects passing input" `Quick rejects_passing_input;
      Alcotest.test_case "committed fixture is 1-minimal" `Slow
        committed_fixture_is_1_minimal;
    ]
end

(* --- mutation self-test ----------------------------------------------- *)

module Mutation_tests = struct
  (* The committed reproducers stay honest: each is conformant with the
     production kernel as-is, and diverges the moment its fault is
     armed.  This is the regression net for the fuzzer itself — if a
     kernel change silently fixes or masks a fault path, this fails. *)
  let replay_fixture fault () =
    let path = "fixtures/mutate-" ^ Hawkset.Fault.name fault ^ ".trace" in
    let t = Trace.Trace_io.load path in
    Alcotest.(check bool)
      "within the minimization budget" true
      (Trace.Tracebuf.length t <= 30);
    Alcotest.(check bool) "conformant disarmed" false (Conformance.failing t);
    Hawkset.Fault.with_fault fault (fun () ->
        match Conformance.divergences t with
        | [] -> Alcotest.fail "armed fault not detected on its reproducer"
        | d :: _ ->
            Alcotest.(check bool)
              "divergence is a report mismatch or crash" true
              (match d.Conformance.d_kind with `Report | `Crash -> true))

  (* A live hunt, end to end: find a failing trace, minimize it, confirm
     the reproducer is clean without the fault.  One cheap fault keeps
     tier-1 fast; the CLI's --mutate all covers the rest in CI. *)
  let live_hunt () =
    let r =
      Conformance.hunt ~traces:30 ~seed:42 Hawkset.Fault.Publish_before_touch
    in
    (match r.Conformance.h_caught_seed with
    | None -> Alcotest.fail "hunt missed the armed fault"
    | Some _ -> ());
    (match r.Conformance.h_minimized with
    | None -> Alcotest.fail "no minimized reproducer"
    | Some m ->
        Alcotest.(check bool)
          "minimized to <= 30 events" true
          (Trace.Tracebuf.length m <= 30));
    Alcotest.(check bool) "clean without fault" true
      r.Conformance.h_clean_without_fault

  let tests =
    List.map
      (fun fault ->
        Alcotest.test_case
          ("replay " ^ Hawkset.Fault.name fault)
          `Quick (replay_fixture fault))
      Hawkset.Fault.all
    @ [ Alcotest.test_case "live hunt catches and minimizes" `Slow live_hunt ]
end

(* --- registry applications vs the specification ----------------------- *)

module Apps_tests = struct
  (* The fuzzer's synthetic traces are deliberately adversarial; the
     nine evaluated applications are the realistic complement.  Reports
     — witnesses included — must be byte-identical between production
     and specification on every app at several seeds. *)
  let app_conforms entry () =
    List.iter
      (fun seed ->
        let ops = Pmapps.Registry.clamp_ops entry 150 in
        let report = entry.Pmapps.Registry.run ~seed ~ops () in
        let trace = report.Machine.Sched.trace in
        let config = Hawkset.Pipeline.default in
        let expected =
          Hawkset.Report.to_json
            (Hawkset.Reference.pipeline
               ~config:(Hawkset.Reference.config_of_pipeline config) trace)
        in
        let actual =
          Hawkset.Report.to_json
            (Hawkset.Pipeline.run ~config trace).Hawkset.Pipeline.races
        in
        Alcotest.(check string)
          (Printf.sprintf "%s seed %d: production == specification"
             entry.Pmapps.Registry.reg_name seed)
          expected actual)
      [ 0; 1; 2 ]

  let tests =
    List.map
      (fun entry ->
        Alcotest.test_case entry.Pmapps.Registry.reg_name `Slow
          (app_conforms entry))
      Pmapps.Registry.all
end

let () =
  Alcotest.run "check"
    [
      ("gen", Gen_tests.tests);
      ("fuzz", Fuzz_tests.tests);
      ("minimize", Minimize_tests.tests);
      ("mutation", Mutation_tests.tests);
      ("apps", Apps_tests.tests);
    ]
