(* Tests for the instrumented runtime: determinism, event emission,
   scheduling, blocking primitives, crash budgets and observation mode. *)

module S = Machine.Sched

let run ?seed ?policy ?sync_config ?crash_after_events ?observe ?(size = 1 lsl 16)
    main =
  let heap = Pmem.Heap.create ~size () in
  let report =
    S.run ?seed ?policy ?sync_config ?crash_after_events ?observe ~heap main
  in
  (heap, report)

module Basic = struct
  let single_thread_events () =
    let _, r =
      run (fun ctx ->
          let a = S.alloc ctx 8 in
          S.store_i64 ctx __POS__ a 1L;
          S.persist ctx __POS__ a 8;
          ignore (S.load_i64 ctx __POS__ a))
    in
    let st = Trace.Tracebuf.stats r.S.trace in
    Alcotest.(check int) "stores" 1 st.Trace.Tracebuf.stores;
    Alcotest.(check int) "loads" 1 st.Trace.Tracebuf.loads;
    Alcotest.(check int) "flushes" 1 st.Trace.Tracebuf.flushes;
    Alcotest.(check int) "fences" 1 st.Trace.Tracebuf.fences;
    Alcotest.(check bool) "completed" true (r.S.outcome = S.Completed)

  let store_visible_and_persistable () =
    let heap, _ =
      run (fun ctx ->
          let a = S.alloc ctx 8 in
          Alcotest.(check int) "first alloc" 64 a;
          S.store_i64 ctx __POS__ a 77L;
          Alcotest.(check int64) "visible" 77L (S.load_i64 ctx __POS__ a);
          S.persist ctx __POS__ a 8)
    in
    Alcotest.(check int64) "persisted" 77L
      (Bytes.get_int64_le (Pmem.Heap.crash_image heap) 64)

  let spawn_join_order () =
    let order = ref [] in
    let _, r =
      run (fun ctx ->
          let a = S.alloc ctx 8 in
          let child =
            S.spawn ctx (fun ctx' ->
                S.store_i64 ctx' __POS__ a 1L;
                order := "child" :: !order)
          in
          S.join ctx child;
          order := "parent" :: !order)
    in
    Alcotest.(check (list string)) "join ordered after child" [ "parent"; "child" ]
      !order;
    Alcotest.(check int) "two threads" 2 r.S.thread_count;
    (* Trace contains create and join markers. *)
    let st = Trace.Tracebuf.stats r.S.trace in
    Alcotest.(check int) "thread ops" 2 st.Trace.Tracebuf.thread_ops

  let many_threads () =
    let counter = ref 0 in
    let _, r =
      run (fun ctx ->
          let a = S.alloc ctx 8 in
          let children =
            List.init 8 (fun i ->
                S.spawn ctx (fun ctx' ->
                    S.store_i64 ctx' __POS__ (a + (8 * 0)) (Int64.of_int i);
                    incr counter))
          in
          List.iter (S.join ctx) children)
    in
    Alcotest.(check int) "all ran" 8 !counter;
    Alcotest.(check int) "thread count" 9 r.S.thread_count

  let determinism () =
    let trace_of seed =
      let _, r =
        run ~seed (fun ctx ->
            let a = S.alloc ctx 64 in
            let children =
              List.init 4 (fun i ->
                  S.spawn ctx (fun ctx' ->
                      for k = 0 to 20 do
                        S.store_i64 ctx' __POS__ (a + (8 * i)) (Int64.of_int k);
                        ignore (S.load_i64 ctx' __POS__ (a + (8 * ((i + 1) mod 4))))
                      done))
            in
            List.iter (S.join ctx) children)
      in
      List.map (Format.asprintf "%a" Trace.Event.pp)
        (Trace.Tracebuf.to_list r.S.trace)
    in
    Alcotest.(check bool) "same seed, same trace" true
      (trace_of 42 = trace_of 42);
    Alcotest.(check bool) "different seeds diverge" true
      (trace_of 42 <> trace_of 43)

  let exception_propagates () =
    Alcotest.check_raises "child exception surfaces" (Failure "boom") (fun () ->
        ignore
          (run (fun ctx ->
               let child = S.spawn ctx (fun _ -> failwith "boom") in
               S.join ctx child)))

  let with_frame_in_sites () =
    let _, r =
      run (fun ctx ->
          let a = S.alloc ctx 8 in
          S.with_frame ctx "writer" (fun () -> S.store_i64 ctx __POS__ a 1L))
    in
    let found =
      Trace.Tracebuf.fold
        (fun acc ev ->
          match ev with
          | Trace.Event.Store { site; _ } -> site.Trace.Site.frames
          | _ -> acc)
        [] r.S.trace
    in
    Alcotest.(check (list string)) "frame recorded" [ "writer" ] found

  let tests =
    [
      Alcotest.test_case "single thread events" `Quick single_thread_events;
      Alcotest.test_case "store visible and persistable" `Quick
        store_visible_and_persistable;
      Alcotest.test_case "spawn/join order" `Quick spawn_join_order;
      Alcotest.test_case "many threads" `Quick many_threads;
      Alcotest.test_case "determinism" `Quick determinism;
      Alcotest.test_case "exception propagates" `Quick exception_propagates;
      Alcotest.test_case "with_frame" `Quick with_frame_in_sites;
    ]
end

module Locks = struct
  let mutex_mutual_exclusion () =
    (* A counter incremented read-modify-write under a mutex must not lose
       updates under any interleaving. *)
    for seed = 0 to 9 do
      let heap, _ =
        run ~seed (fun ctx ->
            let a = S.alloc ctx 8 in
            let m = Machine.Mutex.create ctx in
            let children =
              List.init 4 (fun _ ->
                  S.spawn ctx (fun ctx' ->
                      for _ = 1 to 25 do
                        Machine.Mutex.with_lock m ctx' __POS__ (fun () ->
                            let v = S.load_i64 ctx' __POS__ a in
                            S.store_i64 ctx' __POS__ a (Int64.add v 1L))
                      done))
            in
            List.iter (S.join ctx) children)
      in
      Alcotest.(check int64)
        (Printf.sprintf "no lost updates (seed %d)" seed)
        100L (Pmem.Heap.read_i64 heap 64)
    done

  let mutex_events () =
    let _, r =
      run (fun ctx ->
          let m = Machine.Mutex.create ctx in
          Machine.Mutex.lock m ctx __POS__;
          Machine.Mutex.unlock m ctx __POS__)
    in
    let st = Trace.Tracebuf.stats r.S.trace in
    Alcotest.(check int) "acquire+release" 2 st.Trace.Tracebuf.lock_ops

  let mutex_errors () =
    ignore
      (run (fun ctx ->
           let m = Machine.Mutex.create ctx in
           Machine.Mutex.lock m ctx __POS__;
           (try
              Machine.Mutex.lock m ctx __POS__;
              Alcotest.fail "expected relock failure"
            with Failure _ -> ());
           Machine.Mutex.unlock m ctx __POS__;
           try
             Machine.Mutex.unlock m ctx __POS__;
             Alcotest.fail "expected unlock failure"
           with Failure _ -> ()))

  let try_lock () =
    ignore
      (run (fun ctx ->
           let m = Machine.Mutex.create ctx in
           Alcotest.(check bool) "free: taken" true
             (Machine.Mutex.try_lock m ctx __POS__);
           Alcotest.(check bool) "held: refused" false
             (Machine.Mutex.try_lock m ctx __POS__);
           Machine.Mutex.unlock m ctx __POS__))

  let rwlock_readers_share_writer_excludes () =
    for seed = 0 to 4 do
      let heap, _ =
        run ~seed (fun ctx ->
            let a = S.alloc ctx 8 in
            let rw = Machine.Rwlock.create ctx in
            let writers =
              List.init 2 (fun _ ->
                  S.spawn ctx (fun ctx' ->
                      for _ = 1 to 20 do
                        Machine.Rwlock.with_write rw ctx' __POS__ (fun () ->
                            let v = S.load_i64 ctx' __POS__ a in
                            S.store_i64 ctx' __POS__ a (Int64.add v 1L))
                      done))
            in
            let readers =
              List.init 2 (fun _ ->
                  S.spawn ctx (fun ctx' ->
                      for _ = 1 to 20 do
                        Machine.Rwlock.with_read rw ctx' __POS__ (fun () ->
                            ignore (S.load_i64 ctx' __POS__ a))
                      done))
            in
            List.iter (S.join ctx) (writers @ readers))
      in
      Alcotest.(check int64)
        (Printf.sprintf "writer exclusion (seed %d)" seed)
        40L (Pmem.Heap.read_i64 heap 64)
    done

  let spinlock_uninstrumented_is_silent () =
    let _, r =
      run (fun ctx ->
          let sl = Machine.Spinlock.create ~primitive:"my_custom_lock" ctx in
          Machine.Spinlock.with_lock sl ctx __POS__ (fun () -> ()))
    in
    let st = Trace.Tracebuf.stats r.S.trace in
    Alcotest.(check int) "no lock events without config" 0
      st.Trace.Tracebuf.lock_ops

  let spinlock_instrumented_with_config () =
    let cfg = Machine.Sync_config.register Machine.Sync_config.builtin
        "my_custom_lock"
    in
    let _, r =
      run ~sync_config:cfg (fun ctx ->
          let sl = Machine.Spinlock.create ~primitive:"my_custom_lock" ctx in
          Machine.Spinlock.with_lock sl ctx __POS__ (fun () -> ()))
    in
    let st = Trace.Tracebuf.stats r.S.trace in
    Alcotest.(check int) "lock events with config" 2 st.Trace.Tracebuf.lock_ops

  let spinlock_mutual_exclusion () =
    let heap, _ =
      run ~seed:3 (fun ctx ->
          let a = S.alloc ctx 8 in
          let sl = Machine.Spinlock.create ~primitive:"spin" ctx in
          let children =
            List.init 4 (fun _ ->
                S.spawn ctx (fun ctx' ->
                    for _ = 1 to 25 do
                      Machine.Spinlock.with_lock sl ctx' __POS__ (fun () ->
                          let v = S.load_i64 ctx' __POS__ a in
                          S.store_i64 ctx' __POS__ a (Int64.add v 1L))
                    done))
          in
          List.iter (S.join ctx) children)
    in
    Alcotest.(check int64) "no lost updates" 100L (Pmem.Heap.read_i64 heap 64)

  let tests =
    [
      Alcotest.test_case "mutex mutual exclusion" `Quick mutex_mutual_exclusion;
      Alcotest.test_case "mutex events" `Quick mutex_events;
      Alcotest.test_case "mutex misuse errors" `Quick mutex_errors;
      Alcotest.test_case "try_lock" `Quick try_lock;
      Alcotest.test_case "rwlock semantics" `Quick
        rwlock_readers_share_writer_excludes;
      Alcotest.test_case "uninstrumented spinlock is silent" `Quick
        spinlock_uninstrumented_is_silent;
      Alcotest.test_case "configured spinlock is instrumented" `Quick
        spinlock_instrumented_with_config;
      Alcotest.test_case "spinlock mutual exclusion" `Quick
        spinlock_mutual_exclusion;
    ]
end

module Sync_config_tests = struct
  let parse () =
    let cfg =
      Machine.Sync_config.of_string
        "# custom primitives\nlock my_spin\ntrylock my_try 1\n\n"
    in
    Alcotest.(check bool) "my_spin" true
      (Machine.Sync_config.is_instrumented cfg "my_spin");
    Alcotest.(check (option int)) "my_try success" (Some 1)
      (Machine.Sync_config.trylock_success cfg "my_try");
    Alcotest.(check bool) "builtin kept" true
      (Machine.Sync_config.is_instrumented cfg "pthread_mutex")

  let parse_errors () =
    (try
       ignore (Machine.Sync_config.of_string "lock");
       Alcotest.fail "expected failure"
     with Failure _ -> ());
    try
      ignore (Machine.Sync_config.of_string "trylock x notanint");
      Alcotest.fail "expected failure"
    with Failure _ -> ()

  let tests =
    [
      Alcotest.test_case "parse" `Quick parse;
      Alcotest.test_case "parse errors" `Quick parse_errors;
    ]
end

module Crash = struct
  let crash_budget_stops_execution () =
    let _, r =
      run ~crash_after_events:10 (fun ctx ->
          let a = S.alloc ctx 8 in
          for i = 1 to 1000 do
            S.store_i64 ctx __POS__ a (Int64.of_int i)
          done)
    in
    Alcotest.(check bool) "crashed" true (r.S.outcome = S.Crashed);
    Alcotest.(check bool) "stopped early" true (r.S.event_count <= 11)

  let crash_drops_unpersisted () =
    let heap, r =
      run ~crash_after_events:1 (fun ctx ->
          let a = S.alloc ctx 8 in
          S.store_i64 ctx __POS__ a 5L;
          (* budget exhausted here: the persist below never runs *)
          S.persist ctx __POS__ a 8)
    in
    Alcotest.(check bool) "crashed" true (r.S.outcome = S.Crashed);
    Alcotest.(check int64) "store lost" 0L
      (Bytes.get_int64_le (Pmem.Heap.crash_image heap) 64)

  let crash_with_parked_threads_is_not_deadlock () =
    let _, r =
      run ~crash_after_events:5 (fun ctx ->
          let m = Machine.Mutex.create ctx in
          let a = S.alloc ctx 8 in
          Machine.Mutex.lock m ctx __POS__;
          let child =
            S.spawn ctx (fun ctx' ->
                Machine.Mutex.lock m ctx' __POS__;
                Machine.Mutex.unlock m ctx' __POS__)
          in
          for i = 1 to 100 do
            S.store_i64 ctx __POS__ a (Int64.of_int i)
          done;
          Machine.Mutex.unlock m ctx __POS__;
          S.join ctx child)
    in
    Alcotest.(check bool) "crashed cleanly" true (r.S.outcome = S.Crashed)

  let tests =
    [
      Alcotest.test_case "crash budget" `Quick crash_budget_stops_execution;
      Alcotest.test_case "crash drops unpersisted" `Quick
        crash_drops_unpersisted;
      Alcotest.test_case "crash with parked threads" `Quick
        crash_with_parked_threads_is_not_deadlock;
    ]
end

module Observation = struct
  let observes_unpersisted_cross_thread_load () =
    let found = ref false in
    (* Retry across seeds: observation requires the racy interleaving. *)
    let seed = ref 0 in
    while (not !found) && !seed < 50 do
      let _, r =
        run ~seed:!seed ~observe:true (fun ctx ->
            let a = S.alloc ctx 8 in
            let child =
              S.spawn ctx (fun ctx' -> ignore (S.load_i64 ctx' __POS__ a))
            in
            S.store_i64 ctx __POS__ a 1L;
            S.persist ctx __POS__ a 8;
            S.join ctx child)
      in
      if r.S.observations <> [] then found := true;
      incr seed
    done;
    Alcotest.(check bool) "observed in some execution" true !found

  let no_observation_when_persisted_first () =
    for seed = 0 to 19 do
      let _, r =
        run ~seed ~observe:true (fun ctx ->
            let a = S.alloc ctx 8 in
            S.store_i64 ctx __POS__ a 1L;
            S.persist ctx __POS__ a 8;
            let child =
              S.spawn ctx (fun ctx' -> ignore (S.load_i64 ctx' __POS__ a))
            in
            S.join ctx child)
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d" seed)
        0
        (List.length r.S.observations)
    done

  let cas_observed_as_store () =
    let _, r =
      run (fun ctx ->
          let a = S.alloc ctx 8 in
          Alcotest.(check bool) "cas succeeds" true
            (S.cas_i64 ctx __POS__ a ~expected:0L ~desired:9L);
          Alcotest.(check bool) "cas fails" false
            (S.cas_i64 ctx __POS__ a ~expected:0L ~desired:10L);
          Alcotest.(check int64) "value" 9L (S.load_i64 ctx __POS__ a))
    in
    let st = Trace.Tracebuf.stats r.S.trace in
    Alcotest.(check int) "stores: only successful cas" 1 st.Trace.Tracebuf.stores;
    Alcotest.(check int) "loads: both cas + final" 3 st.Trace.Tracebuf.loads

  let tests =
    [
      Alcotest.test_case "observes unpersisted cross-thread load" `Quick
        observes_unpersisted_cross_thread_load;
      Alcotest.test_case "no observation when persisted first" `Quick
        no_observation_when_persisted_first;
      Alcotest.test_case "cas semantics" `Quick cas_observed_as_store;
    ]
end

module Scripted_tests = struct
  (* The Figure 1c program: writer stores under lock, persists after
     unlocking; reader loads under the same lock. *)
  let fig1c_program ctx =
    let a = S.alloc ctx 8 in
    let lock = Machine.Mutex.create ctx in
    let w =
      S.spawn ctx (fun ctx ->
          Machine.Mutex.lock lock ctx __POS__;
          S.store_i64 ctx __POS__ a 1L;
          Machine.Mutex.unlock lock ctx __POS__;
          S.persist ctx __POS__ a 8)
    in
    let r =
      S.spawn ctx (fun ctx ->
          Machine.Mutex.lock lock ctx __POS__;
          ignore (S.load_i64 ctx __POS__ a);
          Machine.Mutex.unlock lock ctx __POS__)
    in
    S.join ctx w;
    S.join ctx r

  let run_script script =
    let heap = Pmem.Heap.create ~size:(1 lsl 12) () in
    S.run ~policy:(S.Scripted script) ~observe:true ~heap fig1c_program

  let replay_deterministic () =
    let script = Array.init 40 (fun i -> i * 7) in
    let t r =
      List.map (Format.asprintf "%a" Trace.Event.pp)
        (Trace.Tracebuf.to_list r.S.trace)
    in
    Alcotest.(check bool) "same script, same trace" true
      (t (run_script script) = t (run_script script))

  let witness_interleaving_exists () =
    (* HawkSet reports the Fig. 1c race from ANY schedule; enumerating
       scripted schedules exhibits a concrete witness in which the load
       really does read the visible-but-not-durable value — the report is
       not hypothetical. *)
    let witness = ref false in
    let no_witness = ref false in
    (* Systematic enumeration of depth-8 ternary choice prefixes (the
       rest defaults to the first runnable thread). *)
    let script = Array.make 8 0 in
    let rec enumerate d =
      if d = 8 then begin
        let r = run_script (Array.copy script) in
        if r.S.observations <> [] then witness := true else no_witness := true
      end
      else
        for c = 0 to 2 do
          script.(d) <- c;
          if not (!witness && !no_witness) then enumerate (d + 1)
        done
    in
    enumerate 0;
    Alcotest.(check bool) "a witness schedule exists" true !witness;
    Alcotest.(check bool) "and a benign schedule exists" true !no_witness

  let tests =
    [
      Alcotest.test_case "scripted replay is deterministic" `Quick
        replay_deterministic;
      Alcotest.test_case "witness interleaving for figure 1c" `Quick
        witness_interleaving_exists;
    ]
end

module Prng_tests = struct
  let determinism () =
    let a = Machine.Prng.create 1 and b = Machine.Prng.create 1 in
    let xs = List.init 100 (fun _ -> Machine.Prng.next_int64 a) in
    let ys = List.init 100 (fun _ -> Machine.Prng.next_int64 b) in
    Alcotest.(check bool) "same stream" true (xs = ys)

  let bounds =
    QCheck.Test.make ~name:"Prng.int respects bounds" ~count:500
      QCheck.(pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let p = Machine.Prng.create seed in
        let v = Machine.Prng.int p bound in
        v >= 0 && v < bound)

  let float_bounds =
    QCheck.Test.make ~name:"Prng.float respects bounds" ~count:500
      QCheck.small_int
      (fun seed ->
        let p = Machine.Prng.create seed in
        let v = Machine.Prng.float p 1.0 in
        v >= 0.0 && v < 1.0)

  let tests =
    [
      Alcotest.test_case "determinism" `Quick determinism;
      QCheck_alcotest.to_alcotest bounds;
      QCheck_alcotest.to_alcotest float_bounds;
    ]
end

module Policies = struct
  let round_robin_deterministic () =
    let run_once () =
      let heap = Pmem.Heap.create ~size:(1 lsl 16) () in
      let order = ref [] in
      ignore
        (S.run ~policy:S.Round_robin ~heap (fun ctx ->
             let a = S.alloc ctx 32 in
             let children =
               List.init 3 (fun i ->
                   S.spawn ctx (fun ctx' ->
                       for _ = 1 to 3 do
                         S.store_i64 ctx' __POS__ (a + (8 * i)) 1L;
                         order := i :: !order
                       done))
             in
             List.iter (S.join ctx) children));
      !order
    in
    Alcotest.(check (list int)) "round robin is deterministic" (run_once ())
      (run_once ());
    (* Fair rotation: threads alternate rather than running to
       completion one after the other. *)
    let order = List.rev (run_once ()) in
    let alternations =
      let rec go = function
        | a :: (b :: _ as rest) -> (if a <> b then 1 else 0) + go rest
        | [ _ ] | [] -> 0
      in
      go order
    in
    Alcotest.(check bool)
      (Printf.sprintf "threads alternate (%d alternations)" alternations)
      true (alternations >= 4)

  let deadlock_detected () =
    (* Two threads each park forever on a mutex held by the other. *)
    let heap = Pmem.Heap.create ~size:(1 lsl 12) () in
    let raised = ref false in
    (try
       ignore
         (S.run ~seed:1 ~heap (fun ctx ->
              let m1 = Machine.Mutex.create ctx in
              let m2 = Machine.Mutex.create ctx in
              let a =
                S.spawn ctx (fun ctx' ->
                    Machine.Mutex.lock m1 ctx' __POS__;
                    S.yield ctx';
                    S.yield ctx';
                    Machine.Mutex.lock m2 ctx' __POS__)
              in
              let b =
                S.spawn ctx (fun ctx' ->
                    Machine.Mutex.lock m2 ctx' __POS__;
                    S.yield ctx';
                    S.yield ctx';
                    Machine.Mutex.lock m1 ctx' __POS__)
              in
              S.join ctx a;
              S.join ctx b))
     with S.Deadlock _ -> raised := true);
    Alcotest.(check bool) "deadlock raised" true !raised

  (* A run that raises still publishes what it counted: here a child
     persists one store and then parks (a deadlock) or fails. *)
  let raising_run_publishes () =
    let layers () =
      List.filter
        (fun (k, _) ->
          String.starts_with ~prefix:"sched." k
          || String.starts_with ~prefix:"pmem." k)
        (Obs.Registry.counters Obs.Registry.global)
    in
    List.iter
      (fun (what, last) ->
        let before = layers () in
        let heap = Pmem.Heap.create ~size:(1 lsl 16) () in
        (match
           S.run ~heap (fun ctx ->
               let child =
                 S.spawn ctx (fun ctx' ->
                     let a = S.alloc ctx' 8 in
                     S.store_i64 ctx' __POS__ a 1L;
                     S.persist ctx' __POS__ a 8;
                     last ctx')
               in
               S.join ctx child)
         with
        | _ -> Alcotest.failf "%s: the run returned" what
        | exception (S.Deadlock _ | Failure _) -> ());
        let published =
          List.filter (fun (_, v) -> v <> 0)
            (Obs.Registry.delta ~before ~after:(layers ()))
        in
        Alcotest.(check (list (pair string int)))
          (what ^ ": counts published")
          [
            ("pmem.fences", 1); ("pmem.flushes", 1); ("pmem.line_dirties", 1);
            ("sched.context_switches", 4); ("sched.machine_runs", 1);
            ("sched.points", 4); ("sched.threads_spawned", 2);
          ]
          published)
      [ ("deadlock", S.park); ("failure", fun _ -> failwith "app") ]

  let delay_injection_changes_schedules () =
    let trace_of policy =
      let heap = Pmem.Heap.create ~size:(1 lsl 16) () in
      let r =
        S.run ~seed:5 ~policy ~heap (fun ctx ->
            let a = S.alloc ctx 16 in
            let children =
              List.init 2 (fun i ->
                  S.spawn ctx (fun ctx' ->
                      for _ = 1 to 10 do
                        S.store_i64 ctx' __POS__ (a + (8 * i)) 1L
                      done))
            in
            List.iter (S.join ctx) children)
      in
      List.map
        (fun ev -> Trace.Tid.to_int (Trace.Event.tid ev))
        (Trace.Tracebuf.to_list r.S.trace)
    in
    Alcotest.(check bool) "delay injection perturbs the schedule" true
      (trace_of S.Random_interleave
      <> trace_of (S.Delay_injection { probability = 0.5; duration = 20 }))

  let tests =
    [
      Alcotest.test_case "round robin" `Quick round_robin_deterministic;
      Alcotest.test_case "deadlock detected" `Quick deadlock_detected;
      Alcotest.test_case "a raising run publishes" `Quick
        raising_run_publishes;
      Alcotest.test_case "delay injection" `Quick
        delay_injection_changes_schedules;
    ]
end

let () =
  Alcotest.run "machine"
    [
      ("basic", Basic.tests);
      ("policies", Policies.tests);
      ("locks", Locks.tests);
      ("sync_config", Sync_config_tests.tests);
      ("crash", Crash.tests);
      ("observation", Observation.tests);
      ("scripted", Scripted_tests.tests);
      ("prng", Prng_tests.tests);
    ]
