(* Tests for the reimplemented PM applications: functional correctness
   under serial and concurrent execution, structural invariants, and
   HawkSet detection of each app's injected Table 2 bugs. *)

module S = Machine.Sched

(* A sequential reference model to check KV semantics against. *)
let model_check (module App : Pmapps.App_intf.KV) ~ops ~seed () =
  let spec =
    { (Workload.Ycsb.paper_mix ~ops) with threads = 1; load_ops = 100 }
  in
  let w = Workload.Ycsb.generate ~seed spec in
  let all_ops = w.Workload.Ycsb.load @ w.Workload.Ycsb.per_thread.(0) in
  let model : (int, int64) Hashtbl.t = Hashtbl.create 256 in
  let heap = Pmem.Heap.create ~size:(64 * 1024 * 1024) () in
  let mismatches = ref [] in
  ignore
    (S.run ~seed ~sync_config:App.sync_config ~heap (fun ctx ->
         let t = App.create ctx in
         List.iter
           (fun op ->
             match op with
             | Workload.Op.Insert (k, v) | Workload.Op.Update (k, v) ->
                 App.insert t ctx ~key:k ~value:v;
                 Hashtbl.replace model k v
             | Workload.Op.Get k ->
                 let expected = Hashtbl.find_opt model k in
                 let got = App.get t ctx ~key:k in
                 if expected <> got then mismatches := k :: !mismatches
             | Workload.Op.Delete k ->
                 App.delete t ctx ~key:k;
                 Hashtbl.remove model k)
           all_ops;
         (* Final sweep: every model key must be retrievable. *)
         Hashtbl.iter
           (fun k v ->
             if App.get t ctx ~key:k <> Some v then mismatches := k :: !mismatches)
           model));
  Alcotest.(check (list int)) "model agrees" [] !mismatches

let races_of (module App : Pmapps.App_intf.KV) ?(ops = 400) ?(seed = 7) () =
  let report = Pmapps.Driver.run_kv_ycsb (module App) ~seed ~ops () in
  Hawkset.Pipeline.races report.S.trace

module Fast_fair_tests = struct
  let serial_model () = model_check (module Pmapps.Fast_fair) ~ops:400 ~seed:3 ()

  let survives_concurrency () =
    (* Structure stays well-formed under concurrent mutation. *)
    let heap = Pmem.Heap.create ~size:(64 * 1024 * 1024) () in
    ignore
      (S.run ~seed:11 ~heap (fun ctx ->
           let t = Pmapps.Fast_fair.create ctx in
           let spec = Workload.Ycsb.paper_mix ~ops:400 in
           let w = Workload.Ycsb.generate ~seed:11 spec in
           List.iter
             (fun op ->
               match op with
               | Workload.Op.Insert (key, value) ->
                   Pmapps.Fast_fair.insert t ctx ~key ~value
               | _ -> ())
             w.Workload.Ycsb.load;
           let workers =
             Array.to_list
               (Array.map
                  (fun ops ->
                    S.spawn ctx (fun ctx' ->
                        List.iter
                          (fun op ->
                            match op with
                            | Workload.Op.Insert (key, value)
                            | Workload.Op.Update (key, value) ->
                                Pmapps.Fast_fair.insert t ctx' ~key ~value
                            | Workload.Op.Get key ->
                                ignore (Pmapps.Fast_fair.get t ctx' ~key)
                            | Workload.Op.Delete key ->
                                Pmapps.Fast_fair.delete t ctx' ~key)
                          ops))
                  w.Workload.Ycsb.per_thread)
           in
           List.iter (S.join ctx) workers;
           Pmapps.Fast_fair.check t ctx))

  let splits_happen () =
    (* Enough distinct inserts must grow the tree past one node (and past
       one level, for bug #2's path). *)
    let heap = Pmem.Heap.create ~size:(16 * 1024 * 1024) () in
    ignore
      (S.run ~heap (fun ctx ->
           let t = Pmapps.Fast_fair.create ctx in
           for k = 1 to 200 do
             Pmapps.Fast_fair.insert t ctx ~key:k ~value:(Int64.of_int k)
           done;
           Pmapps.Fast_fair.check t ctx;
           Alcotest.(check int) "all keys present" 200
             (List.length (Pmapps.Fast_fair.keys t ctx));
           for k = 1 to 200 do
             Alcotest.(check (option int64))
               (Printf.sprintf "get %d" k)
               (Some (Int64.of_int k))
               (Pmapps.Fast_fair.get t ctx ~key:k)
           done))

  let hawkset_finds_bugs () =
    (* Seed-style workloads (no single-threaded load phase) so the tree
       is built — and split — by the concurrent workers, like the Table 3
       comparison. Bug #2's inner-split branch is rare: like the paper's
       ~83/240 seeds, not every workload covers it, so scan a few. *)
    let corpus = Workload.Seeds.corpus ~count:6 ~ops_per_seed:500 () in
    let found1 = ref false and found2 = ref false in
    Array.iteri
      (fun i seed_ops ->
        if not (!found1 && !found2) then begin
          let per_thread = Workload.Seeds.split ~threads:8 seed_ops in
          let report =
            Pmapps.Driver.run_kv (module Pmapps.Fast_fair) ~seed:i ~load:[]
              ~per_thread ()
          in
          let races = Hawkset.Pipeline.races report.S.trace in
          if Pmapps.Ground_truth.bug_found ~bugs:Pmapps.Fast_fair.bugs races 1
          then found1 := true;
          if Pmapps.Ground_truth.bug_found ~bugs:Pmapps.Fast_fair.bugs races 2
          then found2 := true
        end)
      corpus;
    Alcotest.(check bool) "bug #1 detected" true !found1;
    Alcotest.(check bool) "bug #2 detected" true !found2

  let no_false_positives_with_irh () =
    let report = races_of (module Pmapps.Fast_fair) ~ops:400 ~seed:9 () in
    let fps =
      List.filter
        (fun r ->
          Pmapps.Ground_truth.classify ~bugs:Pmapps.Fast_fair.bugs ~benign:Pmapps.Fast_fair.benign r
          = Pmapps.Ground_truth.False_positive)
        (Hawkset.Report.sorted report)
    in
    Alcotest.(check int)
      (Format.asprintf "no FPs, got: %a" Hawkset.Report.pp fps)
      0 (List.length fps)

  let crash_loses_unpersisted_insert () =
    (* Manifest bug #1: crash between the sibling-pointer publication and
       its deferred persist; an insert routed through the new node becomes
       unreachable after recovery. We simply check that recovery after an
       arbitrary mid-run crash never sees structural corruption but CAN
       lose acknowledged inserts. *)
    let heap = Pmem.Heap.create ~size:(16 * 1024 * 1024) () in
    let meta = ref 0 in
    let acked = ref [] in
    let r =
      S.run ~seed:1 ~crash_after_events:3000 ~heap (fun ctx ->
          let t = Pmapps.Fast_fair.create ctx in
          meta := Pmapps.Fast_fair.meta_addr t;
          let w1 =
            S.spawn ctx (fun ctx' ->
                for k = 1 to 100 do
                  Pmapps.Fast_fair.insert t ctx' ~key:(2 * k) ~value:1L;
                  acked := (2 * k) :: !acked
                done)
          in
          let w2 =
            S.spawn ctx (fun ctx' ->
                for k = 1 to 100 do
                  Pmapps.Fast_fair.insert t ctx' ~key:((2 * k) + 1) ~value:2L;
                  acked := ((2 * k) + 1) :: !acked
                done)
          in
          S.join ctx w1;
          S.join ctx w2)
    in
    Alcotest.(check bool) "crashed" true (r.S.outcome = S.Crashed);
    let post = Pmem.Heap.of_image (Pmem.Heap.crash_image heap) in
    ignore
      (S.run ~heap:post (fun ctx ->
           let t = Pmapps.Fast_fair.recover ctx ~meta_addr:!meta in
           let surviving = Pmapps.Fast_fair.keys t ctx in
           (* Recovery must find a readable structure. *)
           Alcotest.(check bool) "some keys survive" true
             (List.length surviving >= 0);
           ignore surviving))

  let tests =
    [
      Alcotest.test_case "serial model" `Quick serial_model;
      Alcotest.test_case "concurrent invariants" `Quick survives_concurrency;
      Alcotest.test_case "splits happen" `Quick splits_happen;
      Alcotest.test_case "hawkset finds bugs 1 and 2" `Quick hawkset_finds_bugs;
      Alcotest.test_case "no FPs with IRH" `Quick no_false_positives_with_irh;
      Alcotest.test_case "crash and recovery" `Quick
        crash_loses_unpersisted_insert;
    ]
end

(* Reusable checks instantiated for every KV application. *)
module Common (App : Pmapps.App_intf.KV) = struct
  let serial_model () = model_check (module App) ~ops:400 ~seed:3 ()

  let concurrent_final_state () =
    (* Weak linearizability smoke test: after a concurrent run, every
       surviving key maps to SOME value that was actually written to it. *)
    let heap = Pmem.Heap.create ~size:(128 * 1024 * 1024) () in
    let written : (int, (int64, unit) Hashtbl.t) Hashtbl.t =
      Hashtbl.create 256
    in
    let record k v =
      let tbl =
        match Hashtbl.find_opt written k with
        | Some t -> t
        | None ->
            let t = Hashtbl.create 4 in
            Hashtbl.add written k t;
            t
      in
      Hashtbl.replace tbl v ()
    in
    let spec =
      { (Workload.Ycsb.paper_mix ~ops:400) with delete_pct = 0; get_pct = 40 }
    in
    let w = Workload.Ycsb.generate ~seed:13 spec in
    ignore
      (S.run ~seed:13 ~sync_config:App.sync_config ~heap (fun ctx ->
           let t = App.create ctx in
           let all_ops = Array.to_list w.Workload.Ycsb.per_thread in
           let loaders =
             List.map
               (fun ops ->
                 S.spawn ctx (fun ctx' ->
                     List.iter
                       (fun op ->
                         match op with
                         | Workload.Op.Insert (key, value)
                         | Workload.Op.Update (key, value) ->
                             record key value;
                             App.insert t ctx' ~key ~value
                         | Workload.Op.Get key -> ignore (App.get t ctx' ~key)
                         | Workload.Op.Delete key -> ignore key)
                       ops))
               (w.Workload.Ycsb.load :: all_ops)
           in
           List.iter (S.join ctx) loaders;
           (* Verify on the main thread, all workers joined. *)
           Hashtbl.iter
             (fun k values ->
               match App.get t ctx ~key:k with
               | Some v ->
                   Alcotest.(check bool)
                     (Printf.sprintf "key %d holds a written value" k)
                     true (Hashtbl.mem values v)
               | None ->
                   Alcotest.failf "key %d vanished without a delete" k)
             written))

  let concurrent_run_completes () =
    let report = Pmapps.Driver.run_kv_ycsb (module App) ~seed:4 ~ops:400 () in
    Alcotest.(check bool) "completed" true
      (report.S.outcome = S.Completed);
    (* Main thread + 8 loaders + 8 workers. *)
    Alcotest.(check int) "seventeen threads" 17 report.S.thread_count

  let no_false_positives_with_irh () =
    let report = races_of (module App) ~ops:400 ~seed:9 () in
    let fps =
      List.filter
        (fun r ->
          Pmapps.Ground_truth.classify ~bugs:App.bugs ~benign:App.benign r
          = Pmapps.Ground_truth.False_positive)
        (Hawkset.Report.sorted report)
    in
    Alcotest.(check int)
      (Format.asprintf "no FPs, got: %a" Hawkset.Report.pp fps)
      0 (List.length fps)

  let bug_detection ~ops ~seed ids () =
    let report = races_of (module App) ~ops ~seed () in
    List.iter
      (fun id ->
        Alcotest.(check bool)
          (Printf.sprintf "bug #%d detected" id)
          true
          (Pmapps.Ground_truth.bug_found ~bugs:App.bugs report id))
      ids

  let tests ?(bug_ops = 1000) ?(bug_seed = 5) ?(check_fps = true) ids =
    [
      Alcotest.test_case "serial model" `Quick serial_model;
      Alcotest.test_case "concurrent final state" `Quick concurrent_final_state;
      Alcotest.test_case "concurrent run completes" `Quick
        concurrent_run_completes;
      Alcotest.test_case "bugs detected" `Quick
        (bug_detection ~ops:bug_ops ~seed:bug_seed ids);
    ]
    @
    if check_fps then
      [ Alcotest.test_case "no FPs with IRH" `Quick no_false_positives_with_irh ]
    else []
end

module Region_and_scan_tests = struct
  let pm_filtering () =
    (* Register only part of the heap as PM: accesses outside produce no
       events (the §4 mmap filter), so the analysis never sees volatile
       noise — and the PM fraction of the trace mirrors §3.1's point. *)
    let heap = Pmem.Heap.create ~size:(1 lsl 16) () in
    let pm = Pmem.Region.create () in
    Pmem.Region.register pm ~name:"/mnt/pmem/pool" ~addr:0 ~size:4096;
    let r =
      S.run ~pm_regions:pm ~heap (fun ctx ->
          (* PM accesses (inside the region). *)
          S.store_i64 ctx __POS__ 128 1L;
          S.persist ctx __POS__ 128 8;
          (* Volatile scratch: executed, never traced. *)
          for i = 0 to 99 do
            S.store_i64 ctx __POS__ (8192 + (8 * i)) (Int64.of_int i);
            ignore (S.load_i64 ctx __POS__ (8192 + (8 * i)))
          done;
          ignore (S.load_i64 ctx __POS__ 128))
    in
    let st = Trace.Tracebuf.stats r.S.trace in
    Alcotest.(check int) "only PM stores traced" 1 st.Trace.Tracebuf.stores;
    Alcotest.(check int) "only PM loads traced" 1 st.Trace.Tracebuf.loads;
    (* Data still written, of course. *)
    Alcotest.(check int64) "volatile data written" 5L
      (Pmem.Heap.read_i64 heap (8192 + 40))

  let region_registry () =
    let t = Pmem.Region.create () in
    Pmem.Region.register t ~name:"a" ~addr:0 ~size:100;
    Pmem.Region.register t ~name:"b" ~addr:200 ~size:50;
    Alcotest.(check bool) "inside a" true (Pmem.Region.is_pm t 99);
    Alcotest.(check bool) "gap" false (Pmem.Region.is_pm t 150);
    Alcotest.(check (option (triple string int int))) "find" (Some ("b", 200, 50))
      (Pmem.Region.find t 230);
    Alcotest.check_raises "overlap rejected"
      (Invalid_argument "Region.register: overlapping region") (fun () ->
        Pmem.Region.register t ~name:"c" ~addr:90 ~size:20)

  let fast_fair_range () =
    let heap = Pmem.Heap.create ~size:(16 * 1024 * 1024) () in
    ignore
      (S.run ~heap (fun ctx ->
           let t = Pmapps.Fast_fair.create ctx in
           for k = 1 to 300 do
             Pmapps.Fast_fair.insert t ctx ~key:(2 * k) ~value:(Int64.of_int k)
           done;
           let r = Pmapps.Fast_fair.range t ctx ~lo:100 ~hi:120 in
           Alcotest.(check (list (pair int int64))) "range contents"
             [ (100, 50L); (102, 51L); (104, 52L); (106, 53L); (108, 54L);
               (110, 55L); (112, 56L); (114, 57L); (116, 58L); (118, 59L);
               (120, 60L) ]
             r;
           Alcotest.(check (list (pair int int64))) "empty range" []
             (Pmapps.Fast_fair.range t ctx ~lo:601 ~hi:700)))

  let tests =
    [
      Alcotest.test_case "PM region filtering" `Quick pm_filtering;
      Alcotest.test_case "region registry" `Quick region_registry;
      Alcotest.test_case "fast-fair range scan" `Quick fast_fair_range;
    ]
end

module Recovery_tests = struct
  let madfs_log_replay () =
    let heap = Pmem.Heap.create ~size:(64 * 1024 * 1024) () in
    let base = ref 0 in
    ignore
      (S.run ~heap (fun ctx ->
           let t = Pmapps.Madfs.create ctx ~blocks:8 in
           base := Pmapps.Madfs.base_addr t;
           Pmapps.Madfs.write t ctx ~offset:0
             ~data:(Bytes.make Pmapps.Madfs.block_size 'a');
           Pmapps.Madfs.write t ctx ~offset:Pmapps.Madfs.block_size
             ~data:(Bytes.make Pmapps.Madfs.block_size 'b');
           Pmapps.Madfs.fsync t ctx));
    (* Crash NOW: data + log are durable (fsync), the block table's
       recovery path must rebuild the mapping from the log alone. *)
    let post = Pmem.Heap.of_image (Pmem.Heap.crash_image heap) in
    ignore
      (S.run ~heap:post (fun ctx ->
           let t = Pmapps.Madfs.recover ctx ~base:!base ~blocks:8 in
           Alcotest.(check char) "block 0 recovered" 'a'
             (Bytes.get (Pmapps.Madfs.read t ctx ~offset:0) 0);
           Alcotest.(check char) "block 1 recovered" 'b'
             (Bytes.get
                (Pmapps.Madfs.read t ctx ~offset:Pmapps.Madfs.block_size)
                0)))

  (* The control-group crash-consistency property: for ANY op sequence
     and ANY crash point, pmlog's recovery reflects exactly the
     acknowledged prefix — plus, at most, the single operation that was
     in flight at the crash (durable but its return never reached the
     application: the unavoidable ack-vs-durability window). *)
  let pmlog_crash_consistency =
    QCheck.Test.make ~name:"pmlog: recovery == acknowledged prefix (+<=1)"
      ~count:60
      QCheck.(pair small_int (int_range 5 400))
      (fun (seed, crash_after) ->
        let heap = Pmem.Heap.create ~size:(16 * 1024 * 1024) () in
        let base = ref 0 in
        let prng = Machine.Prng.create seed in
        let ops =
          List.init 60 (fun _ ->
              let k = 1 + Machine.Prng.int prng 10 in
              if Machine.Prng.int prng 4 = 0 then `Delete k
              else `Put (k, Machine.Prng.next_int64 prng))
        in
        let acked = ref 0 in
        ignore
          (S.run ~seed ~crash_after_events:crash_after ~heap (fun ctx ->
               let t = Pmapps.Pmlog.create ctx in
               base := Pmapps.Pmlog.base_addr t;
               List.iter
                 (fun op ->
                   (match op with
                   | `Put (k, v) -> Pmapps.Pmlog.insert t ctx ~key:k ~value:v
                   | `Delete k -> Pmapps.Pmlog.delete t ctx ~key:k);
                   incr acked)
                 ops));
        let model_after n =
          let m : (int, int64 option) Hashtbl.t = Hashtbl.create 32 in
          List.iteri
            (fun i op ->
              if i < n then
                match op with
                | `Put (k, v) -> Hashtbl.replace m k (Some v)
                | `Delete k -> Hashtbl.replace m k None)
            ops;
          m
        in
        let post = Pmem.Heap.of_image (Pmem.Heap.crash_image heap) in
        let matches m =
          let ok = ref true in
          ignore
            (S.run ~heap:post (fun ctx ->
                 let t = Pmapps.Pmlog.recover ctx ~base:!base in
                 for k = 1 to 10 do
                   let expected =
                     Option.join (Hashtbl.find_opt m k)
                   in
                   if Pmapps.Pmlog.get t ctx ~key:k <> expected then ok := false
                 done));
          !ok
        in
        matches (model_after !acked)
        || (!acked < List.length ops && matches (model_after (!acked + 1))))

  let tests =
    [
      Alcotest.test_case "madfs log replay" `Quick madfs_log_replay;
      QCheck_alcotest.to_alcotest pmlog_crash_consistency;
    ]
end

module Clht_common = Common (Pmapps.P_clht)

module P_clht_tests = struct
  let rehash_happens () =
    let heap = Pmem.Heap.create ~size:(64 * 1024 * 1024) () in
    ignore
      (S.run ~heap ~sync_config:Pmapps.P_clht.sync_config (fun ctx ->
           let t = Pmapps.P_clht.create ctx in
           for k = 1 to 800 do
             Pmapps.P_clht.insert t ctx ~key:k ~value:(Int64.of_int k)
           done;
           Alcotest.(check bool) "table grew" true
             (Pmapps.P_clht.bucket_count t ctx > 64);
           for k = 1 to 800 do
             Alcotest.(check (option int64))
               (Printf.sprintf "get %d" k)
               (Some (Int64.of_int k))
               (Pmapps.P_clht.get t ctx ~key:k)
           done))

  (* Once a [Scripted] script runs out, decisions fall back to
     round-robin. A lowest-tid fallback let a thread spinning on a bucket
     lock starve the holder forever. The spin emits no events, so an
     event cap cannot stop it: an alarm turns such a regression into a
     failed test instead of a hang (the fixed run takes well under a
     second). *)
  exception Livelock

  let exhausted_script_completes () =
    let w =
      Workload.Ycsb.generate ~seed:7 (Workload.Ycsb.paper_mix ~ops:200)
    in
    let old =
      Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Livelock))
    in
    ignore (Unix.alarm 30 : int);
    let r =
      Fun.protect
        ~finally:(fun () ->
          ignore (Unix.alarm 0 : int);
          Sys.set_signal Sys.sigalrm old)
        (fun () ->
          Pmapps.Driver.run_kv
            (module Pmapps.P_clht)
            ~seed:7
            ~policy:(S.Scripted (Array.init 600 (fun i -> i * 7)))
            ~load:w.Workload.Ycsb.load ~per_thread:w.Workload.Ycsb.per_thread
            ())
    in
    Alcotest.(check bool) "completed" true (r.S.outcome = S.Completed)

  let tests =
    Alcotest.test_case "rehash happens" `Quick rehash_happens
    :: Alcotest.test_case "exhausted script completes" `Quick
         exhausted_script_completes
    :: Clht_common.tests [ 4 ]
end

module Turbo_common = Common (Pmapps.Turbo_hash)

module Turbo_hash_tests = struct
  let second_line_slots_reached () =
    (* Force one bucket past three entries; the overflow slots are the
       unpersisted ones. *)
    let heap = Pmem.Heap.create ~size:(64 * 1024 * 1024) () in
    ignore
      (S.run ~heap ~sync_config:Pmapps.Turbo_hash.sync_config (fun ctx ->
           let t = Pmapps.Turbo_hash.create ctx in
           (* Insert many keys; some bucket will exceed 3 entries via
              probing collisions. *)
           for k = 1 to 4000 do
             Pmapps.Turbo_hash.insert t ctx ~key:k ~value:(Int64.of_int k)
           done;
           let deep =
             List.exists
               (fun k ->
                 match Pmapps.Turbo_hash.slot_of t ctx ~key:k with
                 | Some i -> i >= 3
                 | None -> false)
               (List.init 4000 (fun i -> i + 1))
           in
           Alcotest.(check bool) "some entry on the second line" true deep;
           for k = 1 to 4000 do
             Alcotest.(check (option int64))
               (Printf.sprintf "get %d" k)
               (Some (Int64.of_int k))
               (Pmapps.Turbo_hash.get t ctx ~key:k)
           done))

  let bug_needs_large_workload () =
    (* The Table 2 narrative: bug #3 is invisible in small workloads and
       appears as buckets fill. *)
    let found ops seed =
      Pmapps.Ground_truth.bug_found ~bugs:Pmapps.Turbo_hash.bugs
        (races_of (module Pmapps.Turbo_hash) ~ops ~seed ())
        3
    in
    Alcotest.(check bool) "found in a large workload" true (found 6000 2)

  let tests =
    [
      Alcotest.test_case "second-line slots reached" `Quick
        second_line_slots_reached;
      Alcotest.test_case "bug #3 needs a large workload" `Quick
        bug_needs_large_workload;
    ]
    @ Turbo_common.tests ~bug_ops:6000 ~bug_seed:2 [ 3 ]
end

module Masstree_common = Common (Pmapps.P_masstree)

module P_masstree_tests = struct
  let splits_and_leaves () =
    let heap = Pmem.Heap.create ~size:(64 * 1024 * 1024) () in
    ignore
      (S.run ~heap (fun ctx ->
           let t = Pmapps.P_masstree.create ctx in
           for k = 1 to 500 do
             Pmapps.P_masstree.insert t ctx ~key:k ~value:(Int64.of_int (2 * k))
           done;
           Alcotest.(check bool) "many leaves" true
             (Pmapps.P_masstree.leaf_count t ctx > 10);
           for k = 1 to 500 do
             Alcotest.(check (option int64))
               (Printf.sprintf "get %d" k)
               (Some (Int64.of_int (2 * k)))
               (Pmapps.P_masstree.get t ctx ~key:k)
           done;
           Pmapps.P_masstree.delete t ctx ~key:250;
           Alcotest.(check (option int64)) "deleted" None
             (Pmapps.P_masstree.get t ctx ~key:250)))

  let scan () =
    let heap = Pmem.Heap.create ~size:(64 * 1024 * 1024) () in
    ignore
      (S.run ~heap (fun ctx ->
           let t = Pmapps.P_masstree.create ctx in
           for k = 1 to 200 do
             Pmapps.P_masstree.insert t ctx ~key:(3 * k) ~value:(Int64.of_int k)
           done;
           Alcotest.(check (list (pair int int64))) "scan window"
             [ (150, 50L); (153, 51L); (156, 52L); (159, 53L) ]
             (Pmapps.P_masstree.scan t ctx ~lo:149 ~hi:160);
           Alcotest.(check int) "full scan" 200
             (List.length (Pmapps.P_masstree.scan t ctx ~lo:0 ~hi:10000));
           Alcotest.(check (list (pair int int64))) "empty" []
             (Pmapps.P_masstree.scan t ctx ~lo:601 ~hi:700)))

  let tests =
    Alcotest.test_case "splits and leaves" `Quick splits_and_leaves
    :: Alcotest.test_case "scan" `Quick scan
    :: Masstree_common.tests ~bug_ops:2000 [ 5; 6; 7 ]
end

module Art_common = Common (Pmapps.P_art)

module P_art_tests = struct
  let node_growth () =
    let heap = Pmem.Heap.create ~size:(128 * 1024 * 1024) () in
    ignore
      (S.run ~heap ~sync_config:Pmapps.P_art.sync_config (fun ctx ->
           let t = Pmapps.P_art.create ctx in
           for k = 1 to 400 do
             Pmapps.P_art.insert t ctx ~key:k ~value:(Int64.of_int k)
           done;
           let n4, _, _, n256 = Pmapps.P_art.node_type_counts t ctx in
           (* Dense keys push every level-7 node all the way to N256. *)
           Alcotest.(check bool) "N4 and N256 present" true (n4 > 0 && n256 > 0);
           for k = 1 to 400 do
             Alcotest.(check (option int64))
               (Printf.sprintf "get %d" k)
               (Some (Int64.of_int k))
               (Pmapps.P_art.get t ctx ~key:k)
           done;
           Pmapps.P_art.delete t ctx ~key:123;
           Alcotest.(check (option int64)) "deleted" None
             (Pmapps.P_art.get t ctx ~key:123);
           Pmapps.P_art.insert t ctx ~key:123 ~value:9L;
           Alcotest.(check (option int64)) "reinserted" (Some 9L)
             (Pmapps.P_art.get t ctx ~key:123)))

  let intermediate_sizes () =
    (* 20 keys under one level-7 parent: N4 -> N16 -> N48 growth without
       reaching N256. *)
    let heap = Pmem.Heap.create ~size:(64 * 1024 * 1024) () in
    ignore
      (S.run ~heap ~sync_config:Pmapps.P_art.sync_config (fun ctx ->
           let t = Pmapps.P_art.create ctx in
           for k = 1 to 20 do
             Pmapps.P_art.insert t ctx ~key:k ~value:(Int64.of_int k)
           done;
           let _, _, n48, n256 = Pmapps.P_art.node_type_counts t ctx in
           Alcotest.(check bool) "grew to N48" true (n48 = 1 && n256 = 0);
           for k = 1 to 20 do
             Alcotest.(check (option int64))
               (Printf.sprintf "get %d" k)
               (Some (Int64.of_int k))
               (Pmapps.P_art.get t ctx ~key:k)
           done))

  let tests =
    Alcotest.test_case "node growth" `Quick node_growth
    :: Alcotest.test_case "intermediate node sizes" `Quick intermediate_sizes
    :: Art_common.tests ~bug_ops:1000 [ 8; 9 ]
end

module Wipe_common = Common (Pmapps.Wipe)

module Wipe_tests = struct
  let expansion () =
    let heap = Pmem.Heap.create ~size:(64 * 1024 * 1024) () in
    ignore
      (S.run ~heap (fun ctx ->
           let t = Pmapps.Wipe.create ctx in
           for k = 1 to 3000 do
             Pmapps.Wipe.insert t ctx ~key:k ~value:(Int64.of_int k)
           done;
           let grew = ref false in
           for slot = 0 to Pmapps.Wipe.slots - 1 do
             if Pmapps.Wipe.bucket_capacity t ctx ~slot > 8 then grew := true
           done;
           Alcotest.(check bool) "buckets expanded" true !grew;
           for k = 1 to 3000 do
             Alcotest.(check (option int64))
               (Printf.sprintf "get %d" k)
               (Some (Int64.of_int k))
               (Pmapps.Wipe.get t ctx ~key:k)
           done))

  let traditional_lockset_misses_wipe () =
    (* All three WIPE bugs have the Figure 1c shape: both accesses hold
       the same bucket mutex. The effective-lockset ablation (traditional
       analysis) must miss all of them. *)
    let report = Pmapps.Driver.run_kv_ycsb (module Pmapps.Wipe) ~seed:5 ~ops:800 () in
    let hawkset = Hawkset.Pipeline.races report.S.trace in
    let eraser =
      Hawkset.Pipeline.races
        ~config:
          { Hawkset.Pipeline.default with
            effective_lockset = false; timestamps = false }
        report.S.trace
    in
    List.iter
      (fun id ->
        Alcotest.(check bool)
          (Printf.sprintf "hawkset finds #%d" id)
          true
          (Pmapps.Ground_truth.bug_found ~bugs:Pmapps.Wipe.bugs hawkset id))
      [ 16; 17; 18 ];
    List.iter
      (fun id ->
        Alcotest.(check bool)
          (Printf.sprintf "traditional lockset misses #%d" id)
          false
          (Pmapps.Ground_truth.bug_found ~bugs:Pmapps.Wipe.bugs eraser id))
      [ 16; 17; 18 ]

  let tests =
    Alcotest.test_case "expansion" `Quick expansion
    :: Alcotest.test_case "traditional lockset misses WIPE" `Quick
         traditional_lockset_misses_wipe
    :: Wipe_common.tests ~bug_ops:800 [ 16; 17; 18 ]
end

module Apex_common = Common (Pmapps.Apex)

module Apex_tests = struct
  let overflow_chains () =
    let heap = Pmem.Heap.create ~size:(64 * 1024 * 1024) () in
    ignore
      (S.run ~heap ~sync_config:Pmapps.Apex.sync_config (fun ctx ->
           let t = Pmapps.Apex.create ctx in
           (* More keys than the primary nodes can hold. *)
           for k = 1 to 10000 do
             Pmapps.Apex.insert t ctx ~key:k ~value:(Int64.of_int k)
           done;
           for k = 1 to 10000 do
             Alcotest.(check (option int64))
               (Printf.sprintf "get %d" k)
               (Some (Int64.of_int k))
               (Pmapps.Apex.get t ctx ~key:k)
           done))

  let tests =
    Alcotest.test_case "overflow chains" `Quick overflow_chains
    :: Apex_common.tests ~bug_ops:800 [ 19; 20 ]
end

module Memcached_tests = struct
  let apply t ctx op =
    match op with
    | Workload.Op.Mc_set (key, value) -> Pmapps.Memcached.set t ctx ~key ~value
    | Workload.Op.Mc_get key -> ignore (Pmapps.Memcached.get t ctx ~key)
    | Workload.Op.Mc_add (key, value) ->
        ignore (Pmapps.Memcached.add t ctx ~key ~value)
    | Workload.Op.Mc_replace (key, value) ->
        ignore (Pmapps.Memcached.replace t ctx ~key ~value)
    | Workload.Op.Mc_append (key, value) ->
        ignore (Pmapps.Memcached.append t ctx ~key ~value)
    | Workload.Op.Mc_prepend (key, value) ->
        ignore (Pmapps.Memcached.prepend t ctx ~key ~value)
    | Workload.Op.Mc_cas (key, expected, desired) ->
        ignore (Pmapps.Memcached.cas_op t ctx ~key ~expected ~desired)
    | Workload.Op.Mc_delete key -> Pmapps.Memcached.delete t ctx ~key
    | Workload.Op.Mc_incr key -> Pmapps.Memcached.incr t ctx ~key
    | Workload.Op.Mc_decr key -> Pmapps.Memcached.decr t ctx ~key

  let run ?(seed = 0) ~ops () =
    let heap = Pmem.Heap.create ~size:(64 * 1024 * 1024) () in
    let per_thread = Workload.Ycsb.memcached_mix ~seed ~ops ~threads:8 in
    let reused = ref 0 in
    let report =
      S.run ~seed ~sync_config:Pmapps.Memcached.sync_config ~heap (fun ctx ->
          let t = Pmapps.Memcached.create ctx in
          let workers =
            Array.to_list
              (Array.map
                 (fun ops ->
                   S.spawn ctx (fun ctx' -> List.iter (apply t ctx') ops))
                 per_thread)
          in
          List.iter (S.join ctx) workers;
          reused := Pmapps.Memcached.reused_items t)
    in
    (report, !reused)

  let semantics () =
    let heap = Pmem.Heap.create ~size:(16 * 1024 * 1024) () in
    ignore
      (S.run ~heap (fun ctx ->
           let t = Pmapps.Memcached.create ctx in
           Pmapps.Memcached.set t ctx ~key:1 ~value:10L;
           Alcotest.(check (option int64)) "get" (Some 10L)
             (Pmapps.Memcached.get t ctx ~key:1);
           Alcotest.(check bool) "add existing" false
             (Pmapps.Memcached.add t ctx ~key:1 ~value:11L);
           Alcotest.(check bool) "add fresh" true
             (Pmapps.Memcached.add t ctx ~key:2 ~value:20L);
           Alcotest.(check bool) "replace missing" false
             (Pmapps.Memcached.replace t ctx ~key:3 ~value:0L);
           Alcotest.(check bool) "replace" true
             (Pmapps.Memcached.replace t ctx ~key:2 ~value:21L);
           Alcotest.(check (option int64)) "replaced" (Some 21L)
             (Pmapps.Memcached.get t ctx ~key:2);
           Pmapps.Memcached.incr t ctx ~key:2;
           Alcotest.(check (option int64)) "incr" (Some 22L)
             (Pmapps.Memcached.get t ctx ~key:2);
           Pmapps.Memcached.decr t ctx ~key:2;
           Alcotest.(check (option int64)) "decr" (Some 21L)
             (Pmapps.Memcached.get t ctx ~key:2);
           Alcotest.(check bool) "append" true
             (Pmapps.Memcached.append t ctx ~key:2 ~value:100L);
           Alcotest.(check (option int64)) "appended" (Some 121L)
             (Pmapps.Memcached.get t ctx ~key:2);
           Pmapps.Memcached.delete t ctx ~key:2;
           Alcotest.(check (option int64)) "deleted" None
             (Pmapps.Memcached.get t ctx ~key:2);
           (* Deleted item gets recycled. *)
           Pmapps.Memcached.set t ctx ~key:4 ~value:40L;
           Alcotest.(check int) "reuse happened" 1
             (Pmapps.Memcached.reused_items t);
           Alcotest.(check (option int64)) "after reuse" (Some 40L)
             (Pmapps.Memcached.get t ctx ~key:4)))

  let bugs_detected () =
    let report, _ = run ~seed:3 ~ops:2000 () in
    let races = Hawkset.Pipeline.races report.S.trace in
    List.iter
      (fun id ->
        Alcotest.(check bool)
          (Printf.sprintf "bug #%d" id)
          true
          (Pmapps.Ground_truth.bug_found ~bugs:Pmapps.Memcached.bugs races id))
      [ 10; 11; 12; 13; 14; 15 ]

  let reuse_defeats_irh () =
    (* The Table 4 signature: even WITH the IRH, memcached keeps false
       positives because recycled items are re-initialized on published
       words (§5.4). *)
    let report, reused = run ~seed:3 ~ops:2000 () in
    Alcotest.(check bool) "items were recycled" true (reused > 0);
    let races = Hawkset.Pipeline.races report.S.trace in
    let fps =
      List.filter
        (fun r ->
          Pmapps.Ground_truth.classify ~bugs:Pmapps.Memcached.bugs
            ~benign:Pmapps.Memcached.benign r
          = Pmapps.Ground_truth.False_positive)
        (Hawkset.Report.sorted races)
    in
    Alcotest.(check bool) "FPs survive the IRH" true (List.length fps > 0)

  let tests =
    [
      Alcotest.test_case "semantics" `Quick semantics;
      Alcotest.test_case "bugs detected" `Quick bugs_detected;
      Alcotest.test_case "reuse defeats IRH" `Quick reuse_defeats_irh;
    ]
end

module Madfs_tests = struct
  let block_of_byte b = Bytes.make Pmapps.Madfs.block_size (Char.chr b)

  let cow_semantics () =
    let heap = Pmem.Heap.create ~size:(64 * 1024 * 1024) () in
    ignore
      (S.run ~heap (fun ctx ->
           let t = Pmapps.Madfs.create ctx ~blocks:16 in
           Pmapps.Madfs.write t ctx ~offset:0 ~data:(block_of_byte 1);
           Pmapps.Madfs.write t ctx ~offset:Pmapps.Madfs.block_size
             ~data:(block_of_byte 2);
           Pmapps.Madfs.write t ctx ~offset:0 ~data:(block_of_byte 3);
           Alcotest.(check int) "log grew" 3 (Pmapps.Madfs.log_length t ctx);
           Alcotest.(check char) "block 0 overwritten" '\003'
             (Bytes.get (Pmapps.Madfs.read t ctx ~offset:0) 0);
           Alcotest.(check char) "block 1 intact" '\002'
             (Bytes.get
                (Pmapps.Madfs.read t ctx ~offset:Pmapps.Madfs.block_size)
                0);
           Pmapps.Madfs.fsync t ctx))

  let concurrent_all_benign () =
    let heap = Pmem.Heap.create ~size:(128 * 1024 * 1024) () in
    let per_thread =
      Workload.Ycsb.madfs_mix ~seed:2 ~ops:400 ~threads:8 ~file_blocks:64
    in
    let report =
      S.run ~seed:2 ~heap (fun ctx ->
          let t = Pmapps.Madfs.create ctx ~blocks:64 in
          let workers =
            Array.to_list
              (Array.map
                 (fun ops ->
                   S.spawn ctx (fun ctx' ->
                       List.iter
                         (fun op ->
                           match op with
                           | Workload.Op.Fs_write (offset, _) ->
                               Pmapps.Madfs.write t ctx' ~offset
                                 ~data:(block_of_byte (offset mod 200))
                           | Workload.Op.Fs_read (offset, _) ->
                               ignore (Pmapps.Madfs.read t ctx' ~offset))
                         ops))
                 per_thread)
          in
          List.iter (S.join ctx) workers)
    in
    let races = Hawkset.Pipeline.races report.S.trace in
    (* Races are expected — and every one is tolerated by design. *)
    Alcotest.(check bool) "some races reported" true
      (Hawkset.Report.count races > 0);
    List.iter
      (fun r ->
        match
          Pmapps.Ground_truth.classify ~bugs:Pmapps.Madfs.bugs
            ~benign:Pmapps.Madfs.benign r
        with
        | Pmapps.Ground_truth.Benign -> ()
        | c ->
            Alcotest.failf "unexpected %a for %a"
              Pmapps.Ground_truth.pp_classification c Hawkset.Report.pp_race r)
      (Hawkset.Report.sorted races)

  let tests =
    [
      Alcotest.test_case "copy-on-write semantics" `Quick cow_semantics;
      Alcotest.test_case "concurrent run: all benign" `Quick
        concurrent_all_benign;
    ]
end

module Pmlog_common = Common (Pmapps.Pmlog)

module Pmlog_tests = struct
  (* The control group: a correct PM program must produce ZERO reports. *)
  let zero_reports () =
    for seed = 0 to 4 do
      let races = races_of (module Pmapps.Pmlog) ~ops:400 ~seed () in
      Alcotest.(check int)
        (Printf.sprintf "no reports at all (seed %d)" seed)
        0 (Hawkset.Report.count races)
    done

  let zero_reports_even_without_irh () =
    let report = Pmapps.Driver.run_kv_ycsb (module Pmapps.Pmlog) ~seed:3 ~ops:400 () in
    Alcotest.(check int) "no reports without IRH either" 0
      (Hawkset.Report.count
         (Hawkset.Pipeline.races ~config:Hawkset.Pipeline.no_irh report.S.trace))

  let nothing_to_observe () =
    (* PMRace-style observation also finds nothing: persists precede
       visibility to other threads. *)
    let report =
      Pmapps.Driver.run_kv_ycsb
        (module Pmapps.Pmlog)
        ~seed:5
        ~policy:(S.Delay_injection { probability = 0.2; duration = 50 })
        ~observe:true ~ops:400 ()
    in
    Alcotest.(check int) "no observations" 0 (List.length report.S.observations)

  let tests =
    [
      Alcotest.test_case "zero reports" `Quick zero_reports;
      Alcotest.test_case "zero reports without IRH" `Quick
        zero_reports_even_without_irh;
      Alcotest.test_case "nothing to observe" `Quick nothing_to_observe;
    ]
    @ Pmlog_common.tests []
end

module Crash_damage_tests = struct
  (* The injected bugs are real: crash images manifest their damage. *)

  let turbo_hash_bitmap_without_entry () =
    (* Fill one bucket past its first cache line, crash before the run
       ends, and look for bug #3's signature in the recovered image: a
       persisted bitmap bit whose entry was lost. *)
    let found = ref false in
    let attempt seed crash_after =
      let heap = Pmem.Heap.create ~size:(64 * 1024 * 1024) () in
      let table = ref 0 in
      let r =
        S.run ~seed ~crash_after_events:crash_after ~heap
          ~sync_config:Pmapps.Turbo_hash.sync_config (fun ctx ->
            let t = Pmapps.Turbo_hash.create ctx in
            table := Pmapps.Turbo_hash.table_addr t;
            let workers =
              List.init 4 (fun w ->
                  S.spawn ctx (fun ctx' ->
                      for k = 1 to 2000 do
                        Pmapps.Turbo_hash.insert t ctx' ~key:((4 * k) + w)
                          ~value:(Int64.of_int k)
                      done))
            in
            List.iter (S.join ctx) workers)
      in
      if r.S.outcome = S.Crashed then begin
        let post = Pmem.Heap.of_image (Pmem.Heap.crash_image heap) in
        ignore
          (S.run ~heap:post ~sync_config:Pmapps.Turbo_hash.sync_config
             (fun ctx ->
               let t = Pmapps.Turbo_hash.recover ctx ~table_addr:!table in
               if Pmapps.Turbo_hash.check_consistency t ctx <> [] then
                 found := true))
      end
    in
    let seed = ref 0 in
    while (not !found) && !seed < 40 do
      attempt !seed (20000 + (7919 * !seed));
      incr seed
    done;
    Alcotest.(check bool) "bug #3 damage manifests in some crash" true !found

  let p_clht_lost_rehash_inserts () =
    (* Bug #4: crash between the root swap and its late persist strands
       post-rehash inserts in the unreachable new table. The runs are
       deterministic in the seed, so a dry run locates the root-swap
       events in the trace and the crash is aimed just after one. *)
    let bug4 = List.hd Pmapps.P_clht.bugs in
    let swap_loc = List.hd bug4.Pmapps.Ground_truth.gt_store_locs in
    let workload ctx t acked =
      let workers =
        List.init 4 (fun w ->
            S.spawn ctx (fun ctx' ->
                for k = 1 to 400 do
                  let key = (4 * k) + w in
                  Pmapps.P_clht.insert t ctx' ~key ~value:(Int64.of_int key);
                  acked := key :: !acked
                done))
      in
      List.iter (S.join ctx) workers
    in
    let found = ref false in
    let seed = ref 0 in
    while (not !found) && !seed < 10 do
      (* Dry run: find the root-swap event indices. *)
      let dry_heap = Pmem.Heap.create ~size:(64 * 1024 * 1024) () in
      let dry =
        S.run ~seed:!seed
          ~policy:(S.Targeted_delay { store_loc = swap_loc; duration = 600 })
          ~sync_config:Pmapps.P_clht.sync_config ~heap:dry_heap (fun ctx ->
            let t = Pmapps.P_clht.create ctx in
            workload ctx t (ref []))
      in
      let swaps = ref [] in
      Trace.Tracebuf.iteri
        (fun i ev ->
          match ev with
          | Trace.Event.Store { site; _ }
            when Trace.Site.location site = swap_loc ->
              swaps := i :: !swaps
          | _ -> ())
        dry.S.trace;
      (* Aim the crash shortly after each swap: the same seed replays the
         same schedule up to the crash point. *)
      List.iter
        (fun swap_idx ->
          List.iter
            (fun k ->
              if not !found then begin
                let heap = Pmem.Heap.create ~size:(64 * 1024 * 1024) () in
                let header = ref 0 in
                let acked = ref [] in
                let r =
                  S.run ~seed:!seed ~crash_after_events:(swap_idx + k)
                    ~policy:
                      (S.Targeted_delay { store_loc = swap_loc; duration = 600 })
                    ~sync_config:Pmapps.P_clht.sync_config ~heap (fun ctx ->
                      let t = Pmapps.P_clht.create ctx in
                      header := Pmapps.P_clht.header_addr t;
                      workload ctx t acked)
                in
                if r.S.outcome = S.Crashed then begin
                  let post = Pmem.Heap.of_image (Pmem.Heap.crash_image heap) in
                  ignore
                    (S.run ~heap:post ~sync_config:Pmapps.P_clht.sync_config
                       (fun ctx ->
                         let t =
                           Pmapps.P_clht.recover ctx ~header_addr:!header
                         in
                         if
                           List.exists
                             (fun key ->
                               Pmapps.P_clht.get t ctx ~key = None)
                             !acked
                         then found := true))
                end
              end)
            [ 20; 60; 150; 400 ])
        !swaps;
      incr seed
    done;
    Alcotest.(check bool) "bug #4 loses acknowledged inserts" true !found

  let memcached_value_lost_key_durable () =
    (* Bug #12's damage: the item's key is persisted at link time but the
       value never is — post-crash the key exists with a zero value. *)
    let found = ref false in
    let attempt seed crash_after =
      let heap = Pmem.Heap.create ~size:(64 * 1024 * 1024) () in
      let acked = ref [] in
      let base = ref 0 in
      let r =
        S.run ~seed ~crash_after_events:crash_after ~heap (fun ctx ->
            let t = Pmapps.Memcached.create ctx in
            (* Peek at the table base through a set+get round trip. *)
            base := 0;
            let workers =
              List.init 4 (fun w ->
                  S.spawn ctx (fun ctx' ->
                      for k = 1 to 200 do
                        let key = (4 * k) + w in
                        Pmapps.Memcached.set t ctx' ~key
                          ~value:(Int64.of_int key);
                        acked := key :: !acked
                      done))
            in
            List.iter (S.join ctx) workers)
      in
      ignore !base;
      if r.S.outcome = S.Crashed then begin
        (* Inspect the raw crash image: find any acked key whose adjacent
           value word is zero (item layout: key at +0, value at +8; keys
           are persisted, values never are — bug #12). *)
        let img = Pmem.Heap.crash_image heap in
        let words = Bytes.length img / 8 in
        let keys = List.sort_uniq compare !acked in
        let rec scan w =
          if w >= words - 1 then ()
          else begin
            let k = Bytes.get_int64_le img (8 * w) in
            let v = Bytes.get_int64_le img (8 * (w + 1)) in
            if
              Int64.to_int k > 0
              && List.mem (Int64.to_int k) keys
              && Int64.equal v 0L
            then found := true
            else scan (w + 1)
          end
        in
        scan 8
      end
    in
    let seed = ref 0 in
    while (not !found) && !seed < 20 do
      attempt !seed (4000 + (1777 * !seed));
      incr seed
    done;
    Alcotest.(check bool) "bug #12 damage: durable key, lost value" true !found

  let p_art_observed_key_vanishes () =
    (* Bug #8's damage, Definition-1 style: the add_child slot store is
       visible immediately but persists only after the critical section.
       Drive the exact scenario: two setup keys put a N4 node at the
       bottom level; the writer adds a third key there and is adversarially
       descheduled between the slot store and its deferred persist; the
       reader observes the key (the side effect) and the machine crashes
       while the window is still open. After recovery the observed key is
       gone. *)
    let found = ref false in
    let bug8 = List.hd Pmapps.P_art.bugs in
    let n4_store_loc = List.hd bug8.Pmapps.Ground_truth.gt_store_locs in
    let attempt seed =
      let heap = Pmem.Heap.create ~size:(64 * 1024 * 1024) () in
      let meta = ref 0 in
      let observed = ref false in
      let r =
        S.run ~seed ~crash_after_events:1500
          ~policy:(S.Targeted_delay { store_loc = n4_store_loc; duration = 100_000 })
          ~sync_config:Pmapps.P_art.sync_config ~heap (fun ctx ->
            let t = Pmapps.P_art.create ctx in
            meta := Pmapps.P_art.meta_addr t;
            (* Keys 1 and 2 share all bytes but the last: their chain ends
               in a bottom-level N4 where key 3 will be added. *)
            Pmapps.P_art.insert t ctx ~key:1 ~value:1L;
            Pmapps.P_art.insert t ctx ~key:2 ~value:2L;
            let writer =
              S.spawn ctx (fun ctx' ->
                  Pmapps.P_art.insert t ctx' ~key:3 ~value:3L)
            in
            let reader =
              S.spawn ctx (fun ctx' ->
                  (* Poll until the key is visible, then keep consuming
                     events until the power cut. *)
                  for _ = 1 to 2000 do
                    if Pmapps.P_art.get t ctx' ~key:3 <> None then
                      observed := true
                  done)
            in
            S.join ctx writer;
            S.join ctx reader)
      in
      if r.S.outcome = S.Crashed && !observed then begin
        let post = Pmem.Heap.of_image (Pmem.Heap.crash_image heap) in
        ignore
          (S.run ~heap:post ~sync_config:Pmapps.P_art.sync_config (fun ctx ->
               let t = Pmapps.P_art.recover_at ctx ~meta_addr:!meta in
               Alcotest.(check (option int64)) "setup keys durable" (Some 1L)
                 (Pmapps.P_art.get t ctx ~key:1);
               if Pmapps.P_art.get t ctx ~key:3 = None then found := true))
      end
    in
    let seed = ref 0 in
    while (not !found) && !seed < 20 do
      attempt !seed;
      incr seed
    done;
    Alcotest.(check bool) "bug #8: an observed key vanishes" true !found

  let wipe_stranded_puts () =
    (* Bug #18's §5.1 description: after an expansion whose pointer swap
       never persists, later (durable!) puts into the new buffer are lost
       when a crash reverts the pointer. *)
    let found = ref false in
    let attempt seed crash_after =
      let heap = Pmem.Heap.create ~size:(64 * 1024 * 1024) () in
      let root = ref 0 in
      let acked = ref [] in
      let r =
        S.run ~seed ~crash_after_events:crash_after ~heap (fun ctx ->
            let t = Pmapps.Wipe.create ctx in
            root := Pmapps.Wipe.root_addr t;
            let workers =
              List.init 4 (fun w ->
                  S.spawn ctx (fun ctx' ->
                      for k = 1 to 600 do
                        Pmapps.Wipe.insert t ctx' ~key:((4 * k) + w)
                          ~value:(Int64.of_int k);
                        acked := ((4 * k) + w) :: !acked
                      done))
            in
            List.iter (S.join ctx) workers)
      in
      if r.S.outcome = S.Crashed then begin
        let post = Pmem.Heap.of_image (Pmem.Heap.crash_image heap) in
        ignore
          (S.run ~heap:post (fun ctx ->
               let t = Pmapps.Wipe.recover ctx ~root_addr:!root in
               if
                 List.exists
                   (fun k -> Pmapps.Wipe.get t ctx ~key:k = None)
                   !acked
               then found := true))
      end
    in
    let seed = ref 0 in
    while (not !found) && !seed < 30 do
      attempt !seed (30000 + (4021 * !seed));
      incr seed
    done;
    Alcotest.(check bool) "bug #18 strands acknowledged puts" true !found

  let eadr_prevents_fast_fair_loss () =
    (* Under eADR the same crash points lose nothing: the bug class is an
       artifact of the volatile cache (§2.1). *)
    for seed = 0 to 5 do
      let heap = Pmem.Heap.create ~eadr:true ~size:(16 * 1024 * 1024) () in
      let meta = ref 0 in
      let acked = ref [] in
      let r =
        S.run ~seed ~crash_after_events:(4000 + (997 * seed)) ~heap (fun ctx ->
            let t = Pmapps.Fast_fair.create ctx in
            meta := Pmapps.Fast_fair.meta_addr t;
            let workers =
              List.init 2 (fun w ->
                  S.spawn ctx (fun ctx' ->
                      for k = 1 to 150 do
                        let key = (2 * k) + w in
                        Pmapps.Fast_fair.insert t ctx' ~key ~value:1L;
                        acked := key :: !acked
                      done))
            in
            List.iter (S.join ctx) workers)
      in
      if r.S.outcome = S.Crashed then begin
        let post = Pmem.Heap.of_image (Pmem.Heap.crash_image heap) in
        ignore
          (S.run ~heap:post (fun ctx ->
               let t = Pmapps.Fast_fair.recover ctx ~meta_addr:!meta in
               let keys = Pmapps.Fast_fair.keys t ctx in
               List.iter
                 (fun k ->
                   Alcotest.(check bool)
                     (Printf.sprintf "key %d survives under eADR (seed %d)" k
                        seed)
                     true (List.mem k keys))
                 !acked))
      end
    done

  let tests =
    [
      Alcotest.test_case "turbo-hash crash damage" `Slow
        turbo_hash_bitmap_without_entry;
      Alcotest.test_case "p-clht lost rehash inserts" `Slow
        p_clht_lost_rehash_inserts;
      Alcotest.test_case "memcached durable key, lost value" `Slow
        memcached_value_lost_key_durable;
      Alcotest.test_case "p-art observed key vanishes" `Slow
        p_art_observed_key_vanishes;
      Alcotest.test_case "wipe stranded puts" `Slow wipe_stranded_puts;
      Alcotest.test_case "eADR prevents the loss" `Slow
        eadr_prevents_fast_fair_loss;
    ]
end

(* Trace identity of every registry app under every policy family, pinned
   against a table generated before the pmem storage was made sparse. The
   heap's representation must never show through: the same (app, seed,
   policy, ops) must produce a byte-identical trace. *)
module Fingerprint_tests = struct
  let fixture = "fixtures/app-fingerprints.txt"

  (* A script with negative choices and values past every pool size, so
     both the [mod] and the [abs] of a scripted pick are exercised. It
     outlasts every run: once a script is exhausted the first runnable
     thread always wins, and a thread spinning on a lock would never
     yield to its holder. *)
  let script =
    Array.init 1_000_000 (fun i -> (((i * 0x9E3779B1) lsr 13) land 63) - 32)

  (* The targeted store: the app's first injected bug's first store site,
     else the site of the first store its random-policy run records. *)
  let target_loc (e : Pmapps.Registry.entry) random_trace =
    match e.bugs with
    | { Pmapps.Ground_truth.gt_store_locs = loc :: _; _ } :: _ -> loc
    | _ ->
        let first = ref None in
        Trace.Tracebuf.iter
          (fun ev ->
            match (ev, !first) with
            | Trace.Event.Store { site; _ }, None ->
                first := Some (Trace.Site.location site)
            | _ -> ())
          random_trace;
        Option.value ~default:"" !first

  let policies e random_trace =
    [
      ("random", S.Random_interleave);
      ("round-robin", S.Round_robin);
      ("pct", S.Pct { depth = 3 });
      ( "delay-injection",
        S.Delay_injection { probability = 0.05; duration = 40 } );
      ("scripted", S.Scripted script);
      ( "targeted-delay",
        S.Targeted_delay
          { store_loc = target_loc e random_trace; duration = 40 } );
    ]

  let table () =
    List.concat_map
      (fun (e : Pmapps.Registry.entry) ->
        let run policy = (e.run ~seed:7 ~policy ~ops:200 ()).S.trace in
        let random_trace = run S.Random_interleave in
        List.map
          (fun (pname, policy) ->
            let trace =
              if pname = "random" then random_trace else run policy
            in
            Printf.sprintf "%s %s %s" e.reg_name pname
              (Trace.Trace_io.fingerprint trace))
          (policies e random_trace))
      Pmapps.Registry.all

  let matches_fixture () =
    let expected =
      In_channel.with_open_text fixture In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "")
    in
    Alcotest.(check (list string)) "9 apps x 6 policies" expected (table ())

  let tests =
    [
      Alcotest.test_case "app x policy fingerprints match fixture" `Slow
        matches_fixture;
    ]
end

let () =
  Alcotest.run "apps"
    [
      ("fast_fair", Fast_fair_tests.tests);
      ("p_clht", P_clht_tests.tests);
      ("turbo_hash", Turbo_hash_tests.tests);
      ("p_masstree", P_masstree_tests.tests);
      ("p_art", P_art_tests.tests);
      ("wipe", Wipe_tests.tests);
      ("apex", Apex_tests.tests);
      ("memcached", Memcached_tests.tests);
      ("madfs", Madfs_tests.tests);
      ("pmlog", Pmlog_tests.tests);
      ("crash_damage", Crash_damage_tests.tests);
      ("region_scan", Region_and_scan_tests.tests);
      ("recovery", Recovery_tests.tests);
      ("fingerprints", Fingerprint_tests.tests);
    ]
