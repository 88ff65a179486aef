(* Tests for the HawkSet core: timestamped locksets, vector clocks, the
   stage-1/2 collector and the stage-3 analysis, on hand-crafted traces. *)

let lid = Trace.Lock_id.of_int
let tid = Trace.Tid.of_int
let s file line = Trace.Site.v file line

module Lockset_tests = struct
  open Hawkset

  let acquire_release () =
    let ls = Lockset.acquire Lockset.empty (lid 1) ~ts:1 in
    let ls = Lockset.acquire ls (lid 2) ~ts:2 in
    Alcotest.(check int) "two locks" 2 (Lockset.cardinal ls);
    Alcotest.(check bool) "mem 1" true (Lockset.mem ls (lid 1));
    let ls = Lockset.release ls (lid 1) in
    Alcotest.(check bool) "released" false (Lockset.mem ls (lid 1));
    Alcotest.(check int) "one left" 1 (Lockset.cardinal ls);
    Alcotest.(check bool) "release absent is noop" true
      (Lockset.equal ls (Lockset.release ls (lid 9)))

  let reacquire_keeps_outermost_ts () =
    let ls = Lockset.acquire Lockset.empty (lid 1) ~ts:1 in
    let ls' = Lockset.acquire ls (lid 1) ~ts:5 in
    Alcotest.(check bool) "unchanged" true (Lockset.equal ls ls')

  let ts_aware_intersection () =
    let a = Lockset.acquire Lockset.empty (lid 1) ~ts:1 in
    let b_same = Lockset.acquire Lockset.empty (lid 1) ~ts:1 in
    let b_diff = Lockset.acquire Lockset.empty (lid 1) ~ts:2 in
    Alcotest.(check int) "same ts: kept" 1
      (Lockset.cardinal (Lockset.inter_same_thread a b_same));
    Alcotest.(check int) "different ts: dropped" 0
      (Lockset.cardinal (Lockset.inter_same_thread a b_diff));
    Alcotest.(check int) "no-ts variant keeps it" 1
      (Lockset.cardinal (Lockset.inter_same_thread_no_ts a b_diff))

  let disjointness_ignores_ts () =
    let a = Lockset.acquire Lockset.empty (lid 1) ~ts:1 in
    let b = Lockset.acquire Lockset.empty (lid 1) ~ts:99 in
    Alcotest.(check bool) "same lock, any ts: not disjoint" false
      (Lockset.disjoint_locks a b);
    let c = Lockset.acquire Lockset.empty (lid 2) ~ts:1 in
    Alcotest.(check bool) "different locks: disjoint" true
      (Lockset.disjoint_locks a c);
    Alcotest.(check bool) "empty is disjoint with anything" true
      (Lockset.disjoint_locks Lockset.empty a)

  let lockset_gen =
    QCheck.Gen.(
      let entry = pair (int_bound 20) (int_range 1 50) in
      list_size (int_bound 8) entry
      |> map (fun entries ->
             List.fold_left
               (fun ls (l, ts) -> Lockset.acquire ls (lid l) ~ts)
               Lockset.empty entries))

  let arb_lockset = QCheck.make ~print:(Format.asprintf "%a" Lockset.pp) lockset_gen

  let inter_subset =
    QCheck.Test.make ~name:"intersection is a subset of both operands"
      ~count:300 (QCheck.pair arb_lockset arb_lockset) (fun (a, b) ->
        let i = Lockset.inter_same_thread a b in
        List.for_all (fun l -> Lockset.mem a l && Lockset.mem b l)
          (Lockset.locks i))

  let inter_commutes =
    QCheck.Test.make ~name:"timestamped intersection commutes" ~count:300
      (QCheck.pair arb_lockset arb_lockset) (fun (a, b) ->
        Lockset.equal (Lockset.inter_same_thread a b)
          (Lockset.inter_same_thread b a))

  let self_inter_identity =
    QCheck.Test.make ~name:"ls ∩ ls = ls" ~count:300 arb_lockset (fun a ->
        Lockset.equal (Lockset.inter_same_thread a a) a)

  let disjoint_iff_empty_inter =
    QCheck.Test.make ~name:"disjoint_locks agrees with no-ts intersection"
      ~count:300 (QCheck.pair arb_lockset arb_lockset) (fun (a, b) ->
        Lockset.disjoint_locks a b
        = Lockset.is_empty (Lockset.inter_same_thread_no_ts a b))

  let locks_sorted =
    QCheck.Test.make ~name:"locks are sorted and unique" ~count:300 arb_lockset
      (fun a ->
        let ls = List.map Trace.Lock_id.to_int (Lockset.locks a) in
        ls = List.sort_uniq Int.compare ls)

  let tests =
    [
      Alcotest.test_case "acquire/release" `Quick acquire_release;
      Alcotest.test_case "reacquire keeps outermost ts" `Quick
        reacquire_keeps_outermost_ts;
      Alcotest.test_case "ts-aware intersection" `Quick ts_aware_intersection;
      Alcotest.test_case "disjointness ignores ts" `Quick
        disjointness_ignores_ts;
      QCheck_alcotest.to_alcotest inter_subset;
      QCheck_alcotest.to_alcotest inter_commutes;
      QCheck_alcotest.to_alcotest self_inter_identity;
      QCheck_alcotest.to_alcotest disjoint_iff_empty_inter;
      QCheck_alcotest.to_alcotest locks_sorted;
    ]
end

module Vclock_tests = struct
  open Hawkset

  let paper_example () =
    (* Figure 3's clocks: T1 at (3,0,0) creates T2 which starts at (3,1,0);
       Store1 at (1,0,0) is ordered before T2's accesses; T2 and T3 run
       concurrently. *)
    let v1 = Vclock.tick (Vclock.tick (Vclock.tick Vclock.zero 0) 0) 0 in
    (* (3,0,0) *)
    let v2 = Vclock.tick v1 1 (* (3,1,0) *) in
    let store1 = Vclock.tick Vclock.zero 0 (* (1,0,0) *) in
    Alcotest.(check bool) "store1 ordered before T2" true (Vclock.leq store1 v2);
    Alcotest.(check bool) "store1 not concurrent with T2" false
      (Vclock.concurrent store1 v2);
    let v3 = Vclock.tick (Vclock.tick (Vclock.tick v1 0) 0) 2 in
    (* (5,0,1) *)
    Alcotest.(check bool) "T2 and T3 concurrent" true (Vclock.concurrent v2 v3);
    (* Persist3 at (6,0,0) is concurrent with T3's load at (5,0,1). *)
    let persist3 =
      Vclock.tick (Vclock.tick (Vclock.tick (Vclock.tick v1 0) 0) 0) 0
    in
    Alcotest.(check bool) "Persist3 concurrent with Load2" true
      (Vclock.concurrent persist3 v3)

  let merge_is_join () =
    let a = Vclock.tick (Vclock.tick Vclock.zero 0) 0 in
    let b = Vclock.tick Vclock.zero 1 in
    let m = Vclock.merge a b in
    Alcotest.(check int) "component 0" 2 (Vclock.get m 0);
    Alcotest.(check int) "component 1" 1 (Vclock.get m 1);
    Alcotest.(check bool) "a <= m" true (Vclock.leq a m);
    Alcotest.(check bool) "b <= m" true (Vclock.leq b m)

  let canonical_equality () =
    (* A clock that ticked index 3 and nothing else must equal itself
       regardless of internal widths. *)
    let a = Vclock.tick Vclock.zero 3 in
    let b = Vclock.merge (Vclock.tick Vclock.zero 3) Vclock.zero in
    Alcotest.(check bool) "equal" true (Vclock.equal a b);
    Alcotest.(check int) "same hash" (Vclock.hash a) (Vclock.hash b)

  let clock_gen =
    QCheck.Gen.(
      list_size (int_bound 12) (int_bound 4)
      |> map (fun ticks -> List.fold_left Vclock.tick Vclock.zero ticks))

  let arb_clock = QCheck.make ~print:(Format.asprintf "%a" Vclock.pp) clock_gen

  let leq_reflexive =
    QCheck.Test.make ~name:"leq reflexive" ~count:300 arb_clock (fun a ->
        Vclock.leq a a)

  let leq_antisym =
    QCheck.Test.make ~name:"leq antisymmetric" ~count:300
      (QCheck.pair arb_clock arb_clock) (fun (a, b) ->
        (not (Vclock.leq a b && Vclock.leq b a)) || Vclock.equal a b)

  let leq_transitive =
    QCheck.Test.make ~name:"leq transitive" ~count:300
      (QCheck.triple arb_clock arb_clock arb_clock) (fun (a, b, c) ->
        (not (Vclock.leq a b && Vclock.leq b c)) || Vclock.leq a c)

  let concurrent_symmetric =
    QCheck.Test.make ~name:"concurrent symmetric and irreflexive" ~count:300
      (QCheck.pair arb_clock arb_clock) (fun (a, b) ->
        Vclock.concurrent a b = Vclock.concurrent b a
        && not (Vclock.concurrent a a))

  let trichotomy =
    QCheck.Test.make ~name:"ordered or concurrent" ~count:300
      (QCheck.pair arb_clock arb_clock) (fun (a, b) ->
        Vclock.leq a b || Vclock.leq b a || Vclock.concurrent a b)

  let merge_lattice =
    QCheck.Test.make ~name:"merge is a join (comm/assoc/idem/ub)" ~count:300
      (QCheck.triple arb_clock arb_clock arb_clock) (fun (a, b, c) ->
        Vclock.equal (Vclock.merge a b) (Vclock.merge b a)
        && Vclock.equal
             (Vclock.merge a (Vclock.merge b c))
             (Vclock.merge (Vclock.merge a b) c)
        && Vclock.equal (Vclock.merge a a) a
        && Vclock.leq a (Vclock.merge a b)
        && Vclock.leq b (Vclock.merge a b))

  let tick_strictly_increases =
    QCheck.Test.make ~name:"tick strictly increases" ~count:300
      (QCheck.pair arb_clock (QCheck.int_bound 4)) (fun (a, i) ->
        let b = Vclock.tick a i in
        Vclock.leq a b && (not (Vclock.equal a b)) && not (Vclock.leq b a))

  let tests =
    [
      Alcotest.test_case "paper example (figure 3)" `Quick paper_example;
      Alcotest.test_case "merge is join" `Quick merge_is_join;
      Alcotest.test_case "canonical equality" `Quick canonical_equality;
      QCheck_alcotest.to_alcotest leq_reflexive;
      QCheck_alcotest.to_alcotest leq_antisym;
      QCheck_alcotest.to_alcotest leq_transitive;
      QCheck_alcotest.to_alcotest concurrent_symmetric;
      QCheck_alcotest.to_alcotest trichotomy;
      QCheck_alcotest.to_alcotest merge_lattice;
      QCheck_alcotest.to_alcotest tick_strictly_increases;
    ]
end

(* Trace-building helpers shared by the collector/analysis tests. *)
module Build = struct
  let store ?(t = 1) ?(sz = 8) ?(nt = false) ~line addr =
    Trace.Event.Store
      { tid = tid t; addr; size = sz; site = s "app.ml" line; non_temporal = nt }

  let load ?(t = 2) ?(sz = 8) ~line addr =
    Trace.Event.Load { tid = tid t; addr; size = sz; site = s "app.ml" line }

  let flush ?(t = 1) addr =
    Trace.Event.Flush
      {
        tid = tid t;
        line = Pmem.Layout.line_of addr;
        kind = Trace.Event.Clwb;
        site = s "app.ml" 0;
      }

  let fence ?(t = 1) () =
    Trace.Event.Fence { tid = tid t; site = s "app.ml" 0 }

  let acq ?(t = 1) l =
    Trace.Event.Lock_acquire { tid = tid t; lock = lid l; site = s "app.ml" 0 }

  let rel ?(t = 1) l =
    Trace.Event.Lock_release { tid = tid t; lock = lid l; site = s "app.ml" 0 }

  let create ~parent ~child =
    Trace.Event.Thread_create { parent = tid parent; child = tid child }

  let join ~waiter ~joined =
    Trace.Event.Thread_join { waiter = tid waiter; joined = tid joined }

  let races ?config evs =
    Hawkset.Pipeline.races ?config (Trace.Tracebuf.of_list evs)

  let race_count ?config evs = Hawkset.Report.count (races ?config evs)
end

module Collector_tests = struct
  open Build

  let collect ?irh evs = Hawkset.Collector.collect ?irh (Trace.Tracebuf.of_list evs)

  let window_shapes () =
    let r =
      collect ~irh:false
        [
          store ~line:1 128;
          flush 128;
          fence ();
          store ~line:2 256 (* never persisted *);
        ]
    in
    let all =
      Hawkset.Collector.all_windows r
    in
    Alcotest.(check int) "two windows" 2 (List.length all);
    let kinds =
      List.sort compare
        (List.map (fun w -> w.Hawkset.Access.w_end) all)
    in
    Alcotest.(check bool) "persisted + open" true
      (kinds
      = List.sort compare
          [ Hawkset.Access.Persisted_same_thread; Hawkset.Access.Open_at_exit ])

  let overwrite_closes_window () =
    let r = collect ~irh:false [ store ~line:1 128; store ~line:2 128 ] in
    let all =
      Hawkset.Collector.all_windows r
    in
    let kinds = List.map (fun w -> w.Hawkset.Access.w_end) all in
    Alcotest.(check bool) "one overwritten, one open" true
      (List.sort compare kinds
      = List.sort compare
          [ Hawkset.Access.Overwritten_same_thread; Hawkset.Access.Open_at_exit ])

  let cross_thread_persist_empty_effective () =
    let r =
      collect ~irh:false
        [
          acq ~t:1 7;
          store ~line:1 128;
          rel ~t:1 7;
          flush ~t:2 128;
          fence ~t:2 ();
        ]
    in
    let all =
      Hawkset.Collector.all_windows r
    in
    match all with
    | [ w ] ->
        Alcotest.(check bool) "kind" true
          (w.Hawkset.Access.w_end = Hawkset.Access.Persisted_other_thread);
        let eff =
          Hawkset.Access.Ls_table.get r.Hawkset.Collector.tables.Hawkset.Access.ls
            w.Hawkset.Access.w_eff
        in
        Alcotest.(check bool) "empty effective lockset" true
          (Hawkset.Lockset.is_empty eff)
    | ws -> Alcotest.fail (Printf.sprintf "expected 1 window, got %d" (List.length ws))

  let flush_before_store_does_not_cover () =
    (* flush, then store, then fence: the store is NOT persisted by that
       flush (worst-case cache). Its window stays open. *)
    let r = collect ~irh:false [ flush 128; store ~line:1 128; fence () ] in
    let all =
      Hawkset.Collector.all_windows r
    in
    match all with
    | [ w ] ->
        Alcotest.(check bool) "open" true
          (w.Hawkset.Access.w_end = Hawkset.Access.Open_at_exit)
    | _ -> Alcotest.fail "expected one window"

  let irh_discards_persisted_init () =
    let evs =
      [ store ~t:1 ~line:1 128; flush ~t:1 128; fence ~t:1 (); load ~t:2 ~line:9 128 ]
    in
    let with_irh = collect ~irh:true evs in
    let without = collect ~irh:false evs in
    Alcotest.(check int) "discarded with IRH" 1
      with_irh.Hawkset.Collector.stats.Hawkset.Collector.c_irh_discarded_stores;
    Alcotest.(check int) "no windows left" 0
      with_irh.Hawkset.Collector.stats.Hawkset.Collector.c_windows;
    Alcotest.(check int) "kept without IRH" 1
      without.Hawkset.Collector.stats.Hawkset.Collector.c_windows

  let irh_keeps_unpersisted_init () =
    (* Publish-before-persist: T2 reads before T1's persist completes —
       the §3.1.3 example of why persistency matters for the IRH. *)
    let evs =
      [ store ~t:1 ~line:1 128; load ~t:2 ~line:9 128; flush ~t:1 128;
        fence ~t:1 () ]
    in
    let r = collect ~irh:true evs in
    Alcotest.(check int) "window kept" 1
      r.Hawkset.Collector.stats.Hawkset.Collector.c_windows;
    Alcotest.(check int) "nothing discarded" 0
      r.Hawkset.Collector.stats.Hawkset.Collector.c_irh_discarded_stores

  let irh_drops_first_thread_loads () =
    let evs = [ store ~t:1 ~line:1 128; load ~t:1 ~line:2 128 ] in
    let r = collect ~irh:true evs in
    Alcotest.(check int) "load dropped" 1
      r.Hawkset.Collector.stats.Hawkset.Collector.c_irh_discarded_loads;
    let r' = collect ~irh:false evs in
    Alcotest.(check int) "load kept without IRH" 1
      r'.Hawkset.Collector.stats.Hawkset.Collector.c_load_records

  let dedup_identical_records () =
    let evs =
      List.concat (List.init 50 (fun _ -> [ store ~t:1 ~line:1 128 ]))
      @ List.init 50 (fun _ -> load ~t:2 ~line:2 128)
    in
    let r = collect ~irh:false evs in
    (* 49 identical overwritten windows collapse into 1; the final open one
       is separate. All 50 identical loads collapse into 1. *)
    Alcotest.(check int) "windows deduped" 2
      r.Hawkset.Collector.stats.Hawkset.Collector.c_windows;
    Alcotest.(check int) "loads deduped" 1
      r.Hawkset.Collector.stats.Hawkset.Collector.c_load_records

  let dedup_bounds_hot_words () =
    (* The §4 sharing optimization: a hot word hammered by the same sites
       must keep a bounded record population regardless of repetition —
       the property that keeps Figure 6 near-linear. *)
    let evs n =
      List.concat
        (List.init n (fun i ->
             let t = 1 + (i mod 2) in
             [
               acq ~t 7;
               store ~t ~line:t 128;
               flush ~t 128;
               fence ~t ();
               rel ~t 7;
               load ~t:(3 - t) ~line:(10 + t) 128;
             ]))
    in
    let windows n =
      (collect ~irh:false (evs n)).Hawkset.Collector.stats
        .Hawkset.Collector.c_windows
    in
    Alcotest.(check int) "population independent of repetition" (windows 50)
      (windows 500)

  let interning_shares () =
    let evs =
      List.concat
        (List.init 20 (fun i ->
             [ acq ~t:1 5; store ~line:1 (128 + (64 * i)); rel ~t:1 5 ]))
    in
    let r = collect ~irh:false evs in
    (* Every iteration has a distinct lockset ({L5@ts}) because the clock
       ticks — but the vector clock is shared across all of them. *)
    Alcotest.(check bool) "few vclocks" true
      (r.Hawkset.Collector.stats.Hawkset.Collector.c_vclocks <= 3)

  let tests =
    [
      Alcotest.test_case "window shapes" `Quick window_shapes;
      Alcotest.test_case "overwrite closes window" `Quick
        overwrite_closes_window;
      Alcotest.test_case "cross-thread persist" `Quick
        cross_thread_persist_empty_effective;
      Alcotest.test_case "flush before store" `Quick
        flush_before_store_does_not_cover;
      Alcotest.test_case "IRH discards persisted init" `Quick
        irh_discards_persisted_init;
      Alcotest.test_case "IRH keeps unpersisted init" `Quick
        irh_keeps_unpersisted_init;
      Alcotest.test_case "IRH drops first-thread loads" `Quick
        irh_drops_first_thread_loads;
      Alcotest.test_case "record dedup" `Quick dedup_identical_records;
      Alcotest.test_case "dedup bounds hot words" `Quick dedup_bounds_hot_words;
      Alcotest.test_case "interning shares clocks" `Quick interning_shares;
    ]
end

module Analysis_tests = struct
  open Build

  let unprotected_cross_thread_race () =
    Alcotest.(check int) "race" 1
      (race_count ~config:Hawkset.Pipeline.no_irh
         [ store ~t:1 ~line:10 128; load ~t:2 ~line:20 128 ])

  let same_thread_no_race () =
    Alcotest.(check int) "no race" 0
      (race_count ~config:Hawkset.Pipeline.no_irh
         [ store ~t:1 ~line:10 128; load ~t:1 ~line:20 128 ])

  let different_addresses_no_race () =
    Alcotest.(check int) "no race" 0
      (race_count ~config:Hawkset.Pipeline.no_irh
         [ store ~t:1 ~line:10 128; load ~t:2 ~line:20 256 ])

  let partial_overlap_detected () =
    (* 8-byte store at 124 crosses a word boundary; 4-byte load at 128
       overlaps its tail. *)
    Alcotest.(check int) "race" 1
      (race_count ~config:Hawkset.Pipeline.no_irh
         [ store ~t:1 ~sz:8 ~line:10 124; load ~t:2 ~sz:4 ~line:20 128 ]);
    (* Same word, disjoint bytes: no race. *)
    Alcotest.(check int) "no race" 0
      (race_count ~config:Hawkset.Pipeline.no_irh
         [ store ~t:1 ~sz:4 ~line:10 128; load ~t:2 ~sz:4 ~line:20 132 ])

  let protected_and_persisted_no_race () =
    Alcotest.(check int) "no race" 0
      (race_count ~config:Hawkset.Pipeline.no_irh
         [
           acq ~t:1 7;
           store ~t:1 ~line:10 128;
           flush ~t:1 128;
           fence ~t:1 ();
           rel ~t:1 7;
           acq ~t:2 7;
           load ~t:2 ~line:20 128;
           rel ~t:2 7;
         ])

  let never_persisted_races_despite_lock () =
    (* Both accesses hold lock A but the store is never persisted: a crash
       after the load loses the value the load acted on (Definition 1). *)
    Alcotest.(check int) "race" 1
      (race_count ~config:Hawkset.Pipeline.no_irh
         [
           acq ~t:1 7;
           store ~t:1 ~line:10 128;
           rel ~t:1 7;
           acq ~t:2 7;
           load ~t:2 ~line:20 128;
           rel ~t:2 7;
         ])

  let hb_filter_removes_ordered_pairs () =
    (* T1 stores and persists before creating T2: ordered, no race even
       without locks (Figure 3). *)
    Alcotest.(check int) "no race" 0
      (race_count ~config:Hawkset.Pipeline.no_irh
         [
           store ~t:1 ~line:10 128;
           flush ~t:1 128;
           fence ~t:1 ();
           create ~parent:1 ~child:2;
           load ~t:2 ~line:20 128;
         ]);
    (* Without the vector-clock filter the same trace false-positives. *)
    Alcotest.(check int) "ablation: FP" 1
      (race_count
         ~config:{ Hawkset.Pipeline.no_irh with vector_clocks = false }
         [
           store ~t:1 ~line:10 128;
           flush ~t:1 128;
           fence ~t:1 ();
           create ~parent:1 ~child:2;
           load ~t:2 ~line:20 128;
         ])

  let persist_vclock_keeps_late_window () =
    (* Figure 3's Store3/Persist3: the store happens before T2 is created
       but the persist completes after, so T2's load can still observe the
       unpersisted value — must be reported. *)
    Alcotest.(check int) "race" 1
      (race_count ~config:Hawkset.Pipeline.no_irh
         [
           store ~t:1 ~line:10 128;
           create ~parent:1 ~child:2;
           load ~t:2 ~line:20 128;
           flush ~t:1 128;
           fence ~t:1 ();
         ])

  let join_ordered_load_of_unpersisted_store () =
    (* T2 stores and never persists; T1 joins T2 and then loads. The load
       is ordered after the store, but the value is {e guaranteed} not
       persisted at load time — by Definition 1 this is reported: the
       load's side effects can survive a crash that loses the store. *)
    Alcotest.(check int) "reported (Definition 1)" 1
      (race_count ~config:Hawkset.Pipeline.no_irh
         [
           create ~parent:1 ~child:2;
           store ~t:2 ~line:10 128;
           join ~waiter:1 ~joined:2;
           load ~t:1 ~line:20 128;
         ]);
    (* Once the store is persisted before the join, the same shape is
       safe: the persist happens-before the load. *)
    Alcotest.(check int) "persisted before join: safe" 0
      (race_count ~config:Hawkset.Pipeline.no_irh
         [
           create ~parent:1 ~child:2;
           store ~t:2 ~line:10 128;
           flush ~t:2 128;
           fence ~t:2 ();
           join ~waiter:1 ~joined:2;
           load ~t:1 ~line:20 128;
         ])

  let report_aggregation () =
    let r =
      races ~config:Hawkset.Pipeline.no_irh
        [
          store ~t:1 ~line:10 128;
          store ~t:1 ~line:10 192;
          load ~t:2 ~line:20 128;
          load ~t:2 ~line:20 192;
        ]
    in
    (* Two witnessing address pairs, one site pair. *)
    Alcotest.(check int) "one report" 1 (Hawkset.Report.count r);
    match Hawkset.Report.sorted r with
    | [ race ] ->
        Alcotest.(check int) "occurrences" 2 race.Hawkset.Report.occurrences;
        Alcotest.(check bool) "site pair" true
          (Hawkset.Report.mem r ~store_loc:"app.ml:10" ~load_loc:"app.ml:20")
    | _ -> Alcotest.fail "expected exactly one report"

  let cas_load_participates () =
    (* The load half of another thread's CAS can observe unpersisted data:
       represent it as a plain load in the trace. *)
    Alcotest.(check int) "race" 1
      (race_count ~config:Hawkset.Pipeline.no_irh
         [ store ~t:1 ~line:10 128; load ~t:2 ~line:21 128 ])

  let store_store_not_reported () =
    Alcotest.(check int) "no store-store reports" 0
      (race_count ~config:Hawkset.Pipeline.no_irh
         [ store ~t:1 ~line:10 128; store ~t:2 ~line:11 128 ])

  let json_output () =
    let r =
      races ~config:Hawkset.Pipeline.no_irh
        [ store ~t:1 ~line:10 128; load ~t:2 ~line:20 128 ]
    in
    let j = Hawkset.Report.to_json r in
    Alcotest.(check bool) "array" true
      (String.length j > 2 && j.[0] = '[' && j.[String.length j - 1] = ']');
    List.iter
      (fun needle ->
        Alcotest.(check bool) ("contains " ^ needle) true
          (let re = Str.regexp_string needle in
           try
             ignore (Str.search_forward re j 0);
             true
           with Not_found -> false))
      [ {|"file":"app.ml"|}; {|"line":10|}; {|"line":20|};
        {|"window_end":"never_persisted"|}; {|"occurrences":1|} ];
    Alcotest.(check string) "empty report" "[]"
      (Hawkset.Report.to_json Hawkset.Report.empty)

  let pipeline_stats_exposed () =
    let res =
      Hawkset.Pipeline.run ~config:Hawkset.Pipeline.no_irh
        (Trace.Tracebuf.of_list [ store ~t:1 ~line:10 128; load ~t:2 ~line:20 128 ])
    in
    Alcotest.(check bool) "examined pairs" true (res.Hawkset.Pipeline.pairs_examined >= 1);
    Alcotest.(check bool) "time measured" true
      (res.Hawkset.Pipeline.analysis_seconds >= 0.0);
    Alcotest.(check int) "stores counted" 1
      res.Hawkset.Pipeline.collector_stats.Hawkset.Collector.c_stores

  let tests =
    [
      Alcotest.test_case "unprotected cross-thread race" `Quick
        unprotected_cross_thread_race;
      Alcotest.test_case "same thread: no race" `Quick same_thread_no_race;
      Alcotest.test_case "different addresses: no race" `Quick
        different_addresses_no_race;
      Alcotest.test_case "partial overlap" `Quick partial_overlap_detected;
      Alcotest.test_case "protected and persisted: no race" `Quick
        protected_and_persisted_no_race;
      Alcotest.test_case "never persisted races despite lock" `Quick
        never_persisted_races_despite_lock;
      Alcotest.test_case "HB filter removes ordered pairs" `Quick
        hb_filter_removes_ordered_pairs;
      Alcotest.test_case "persist vclock keeps late window" `Quick
        persist_vclock_keeps_late_window;
      Alcotest.test_case "join-ordered unpersisted load" `Quick
        join_ordered_load_of_unpersisted_store;
      Alcotest.test_case "report aggregation" `Quick report_aggregation;
      Alcotest.test_case "cas load participates" `Quick cas_load_participates;
      Alcotest.test_case "store-store not reported" `Quick
        store_store_not_reported;
      Alcotest.test_case "json output" `Quick json_output;
      Alcotest.test_case "pipeline stats" `Quick pipeline_stats_exposed;
    ]
end

module Report_tests = struct
  let has ~needle hay =
    let re = Str.regexp_string needle in
    try
      ignore (Str.search_forward re hay 0);
      true
    with Not_found -> false

  let add r ~store_line ~load_line ~store_tid ~load_tid ~addr =
    Hawkset.Report.add r
      ~store_site:(s "app.ml" store_line)
      ~load_site:(s "app.ml" load_line)
      ~store_tid ~load_tid ~addr ~window_end:Hawkset.Access.Open_at_exit

  (* Parse the emitted JSON back (string-level): every report's fields are
     recoverable, and merged pairs surface their occurrence count. *)
  let json_round_trip () =
    let r = Hawkset.Report.empty in
    let r = add r ~store_line:10 ~load_line:20 ~store_tid:1 ~load_tid:2 ~addr:128 in
    let r = add r ~store_line:10 ~load_line:20 ~store_tid:1 ~load_tid:2 ~addr:136 in
    let r = add r ~store_line:30 ~load_line:40 ~store_tid:3 ~load_tid:4 ~addr:192 in
    let j = Hawkset.Report.to_json r in
    (* One "occurrences" field per serialized report object. *)
    let count_needle needle =
      let re = Str.regexp_string needle in
      let rec go i acc =
        match Str.search_forward re j i with
        | p -> go (p + String.length needle) (acc + 1)
        | exception Not_found -> acc
      in
      go 0 0
    in
    Alcotest.(check int) "two serialized reports" 2
      (count_needle {|"occurrences"|});
    List.iter
      (fun needle ->
        Alcotest.(check bool) ("round-trips " ^ needle) true (has ~needle j))
      [
        {|"line":10|}; {|"line":20|}; {|"line":30|}; {|"line":40|};
        {|"occurrences":2|}; {|"occurrences":1|};
        {|"window_end":"never_persisted"|}; {|"store_tid":1|}; {|"load_tid":4|};
      ]

  (* Random add sequences: merging never changes the two conservation
     laws — distinct site pairs = count, total occurrences = adds. *)
  let merge_invariants =
    let gen =
      QCheck.(
        list_of_size Gen.(int_range 0 40)
          (quad (int_range 1 5) (int_range 1 5) (int_range 1 3) (int_range 1 3)))
    in
    QCheck.Test.make ~name:"add preserves count/occurrence invariants"
      ~count:200 gen (fun adds ->
        let final, ok =
          List.fold_left
            (fun (r, ok) (sl, ll, st, lt) ->
              let before = Hawkset.Report.count r in
              let r = add r ~store_line:sl ~load_line:ll ~store_tid:st
                  ~load_tid:lt ~addr:128 in
              let after = Hawkset.Report.count r in
              (r, ok && after >= before && after <= before + 1))
            (Hawkset.Report.empty, true)
            adds
        in
        let distinct_pairs =
          List.sort_uniq compare (List.map (fun (sl, ll, _, _) -> (sl, ll)) adds)
        in
        ok
        && Hawkset.Report.count final = List.length distinct_pairs
        && List.fold_left
             (fun acc race -> acc + race.Hawkset.Report.occurrences)
             0 final
           = List.length adds
        && List.for_all
             (fun (sl, ll) ->
               Hawkset.Report.mem final
                 ~store_loc:(Printf.sprintf "app.ml:%d" sl)
                 ~load_loc:(Printf.sprintf "app.ml:%d" ll))
             distinct_pairs)

  let tests =
    [
      Alcotest.test_case "json round-trip" `Quick json_round_trip;
      QCheck_alcotest.to_alcotest merge_invariants;
    ]
end

module Reference_tests = struct
  (* Random well-formed traces: a few threads, each running a random
     script of critical sections, PM accesses and persists over a small
     address space; scripts are interleaved at random. The optimized
     analysis must compute exactly the same race set as the literal
     Algorithm 1 transcription. *)

  type op =
    | O_store of int * int
    | O_load of int * int
    | O_persist of int
    | O_locked of int * op list

  let rec gen_op depth =
    QCheck.Gen.(
      let addr = map (fun i -> 128 + (8 * i)) (int_bound 5) in
      let leaf =
        frequency
          [
            (4, map2 (fun a l -> O_store (a, l)) addr (int_range 1 30));
            (4, map2 (fun a l -> O_load (a, l)) addr (int_range 31 60));
            (2, map (fun a -> O_persist a) addr);
          ]
      in
      if depth = 0 then leaf
      else
        frequency
          [
            (8, leaf);
            ( 2,
              map2
                (fun lock body -> O_locked (lock, body))
                (int_bound 2)
                (list_size (int_bound 4) (gen_op (depth - 1))) );
          ])

  let gen_script = QCheck.Gen.(list_size (int_range 1 12) (gen_op 2))

  (* Expand one thread's script into its event sequence. *)
  let rec expand ~t ops =
    let tid = Trace.Tid.of_int t in
    let file = "rnd.ml" in
    List.concat_map
      (fun op ->
        match op with
        | O_store (addr, l) ->
            [ Trace.Event.Store
                { tid; addr; size = 8; site = Trace.Site.v file ((100 * t) + l);
                  non_temporal = false } ]
        | O_load (addr, l) ->
            [ Trace.Event.Load
                { tid; addr; size = 8; site = Trace.Site.v file ((100 * t) + l) } ]
        | O_persist addr ->
            [ Trace.Event.Flush
                { tid; line = Pmem.Layout.line_of addr; kind = Trace.Event.Clwb;
                  site = Trace.Site.v file 0 };
              Trace.Event.Fence { tid; site = Trace.Site.v file 0 } ]
        | O_locked (lock, body) ->
            (Trace.Event.Lock_acquire
               { tid; lock = Trace.Lock_id.of_int lock;
                 site = Trace.Site.v file 0 }
            :: expand ~t body)
            @ [ Trace.Event.Lock_release
                  { tid; lock = Trace.Lock_id.of_int lock;
                    site = Trace.Site.v file 0 } ])
      ops

  let gen_trace =
    QCheck.Gen.(
      int_range 2 4 >>= fun nthreads ->
      list_repeat nthreads gen_script >>= fun scripts ->
      int >>= fun shuffle_seed ->
      let queues =
        List.mapi (fun i script -> ref (expand ~t:(i + 1) script)) scripts
      in
      let creates =
        List.init nthreads (fun i ->
            Trace.Event.Thread_create
              { parent = Trace.Tid.main; child = Trace.Tid.of_int (i + 1) })
      in
      let prng = Machine.Prng.create shuffle_seed in
      let out = ref (List.rev creates) in
      let rec drain () =
        let nonempty = List.filter (fun q -> !q <> []) queues in
        match nonempty with
        | [] -> ()
        | qs ->
            let q = List.nth qs (Machine.Prng.int prng (List.length qs)) in
            (match !q with
            | ev :: rest ->
                out := ev :: !out;
                q := rest
            | [] -> ());
            drain ()
      in
      drain ();
      let joins =
        List.init nthreads (fun i ->
            Trace.Event.Thread_join
              { waiter = Trace.Tid.main; joined = Trace.Tid.of_int (i + 1) })
      in
      return (Trace.Tracebuf.of_list (List.rev !out @ joins)))

  let arb_trace =
    QCheck.make
      ~print:(fun t ->
        String.concat "\n"
          (List.map Trace.Trace_io.event_to_line (Trace.Tracebuf.to_list t)))
      gen_trace

  let equivalence irh =
    QCheck.Test.make
      ~name:
        (Printf.sprintf "optimized analysis == literal Algorithm 1 (irh=%b)"
           irh)
      ~count:300 arb_trace
      (fun trace ->
        let collected = Hawkset.Collector.collect ~irh trace in
        (* Full-JSON equality: same races, same occurrence counts, same
           witnesses, same order — not just the same (store, load) set. *)
        Hawkset.Report.to_json (Hawkset.Analysis.run collected).report
        = Hawkset.Report.to_json (Hawkset.Reference.analyse collected))

  let sanity () =
    (* The generator does produce racy traces sometimes. *)
    let prng = Random.State.make [| 7 |] in
    let some_races = ref false in
    for _ = 1 to 60 do
      let trace = QCheck.Gen.generate1 ~rand:prng gen_trace in
      if
        Hawkset.Report.count
          (Hawkset.Pipeline.races ~config:Hawkset.Pipeline.no_irh trace)
        > 0
      then some_races := true
    done;
    Alcotest.(check bool) "generator reaches racy traces" true !some_races

  let tests =
    [
      Alcotest.test_case "generator sanity" `Quick sanity;
      QCheck_alcotest.to_alcotest (equivalence true);
      QCheck_alcotest.to_alcotest (equivalence false);
    ]
end

module Eadr_tests = struct
  open Build

  let fig1c =
    [ acq ~t:1 7; store ~t:1 ~line:1 128; rel ~t:1 7 ]
    @ [ acq ~t:2 7; load ~t:2 ~line:2 128; rel ~t:2 7 ]
    @ [ flush ~t:1 128; fence ~t:1 () ]

  let eadr_silences_everything () =
    Alcotest.(check int) "volatile cache: race" 1
      (race_count ~config:Hawkset.Pipeline.no_irh fig1c);
    Alcotest.(check int) "eADR: no race" 0
      (race_count
         ~config:{ Hawkset.Pipeline.no_irh with eadr = true }
         fig1c);
    (* Even a store with no persist at all is durable under eADR. *)
    Alcotest.(check int) "missing persist: silent too" 0
      (race_count
         ~config:{ Hawkset.Pipeline.no_irh with eadr = true }
         [ store ~t:1 ~line:1 128; load ~t:2 ~line:2 128 ])

  let eadr_heap_crash_keeps_stores () =
    let h = Pmem.Heap.create ~eadr:true ~size:(1 lsl 12) () in
    Pmem.Heap.write_i64 h 128 42L;
    Pmem.Heap.note_store h ~tid:Trace.Tid.main ~addr:128 ~size:8
      ~non_temporal:false;
    Alcotest.(check bool) "immediately persisted" true
      (Pmem.Heap.persisted_range h ~addr:128 ~size:8);
    Alcotest.(check int64) "crash image has it" 42L
      (Bytes.get_int64_le (Pmem.Heap.crash_image h) 128);
    Alcotest.(check bool) "no dirty conflicts" true
      (Pmem.Heap.dirty_conflict h ~tid:(Trace.Tid.of_int 1) ~addr:128 ~size:8
      = None)

  let tests =
    [
      Alcotest.test_case "eADR silences the bug class" `Quick
        eadr_silences_everything;
      Alcotest.test_case "eADR heap crash semantics" `Quick
        eadr_heap_crash_keeps_stores;
    ]
end

module Truncation_tests = struct
  (* The degradation contract, pinned down: a pipeline cut by a budget or
     deadline still returns a result, and says exactly what it dropped. *)
  let app_trace ops =
    match Pmapps.Registry.find "fast-fair" with
    | Some e ->
        (e.Pmapps.Registry.run ~seed:42 ~ops:(Pmapps.Registry.clamp_ops e ops) ())
          .Machine.Sched.trace
    | None -> Alcotest.fail "fast-fair not registered"

  let tiny_event_budget () =
    let t = app_trace 1_000 in
    let total = Trace.Tracebuf.length t in
    let r =
      Hawkset.Pipeline.run
        ~config:
          { Hawkset.Pipeline.default with Hawkset.Pipeline.event_budget = Some 3 }
        t
    in
    match r.Hawkset.Pipeline.truncated with
    | [ tr ] ->
        Alcotest.(check string) "stage" "collect" tr.Hawkset.Pipeline.trunc_stage;
        Alcotest.(check string)
          "reason" "event_budget" tr.Hawkset.Pipeline.trunc_reason;
        Alcotest.(check int) "done" 3 tr.Hawkset.Pipeline.trunc_done;
        Alcotest.(check int) "total" total tr.Hawkset.Pipeline.trunc_total
    | l -> Alcotest.failf "expected exactly one truncation, got %d" (List.length l)

  let expired_collect_deadline () =
    let t = app_trace 1_000 in
    let total = Trace.Tracebuf.length t in
    let r =
      Hawkset.Pipeline.run
        ~config:
          {
            Hawkset.Pipeline.default with
            Hawkset.Pipeline.collect_deadline_s = Some 0.0;
          }
        t
    in
    match
      List.filter
        (fun (tr : Hawkset.Pipeline.truncation) ->
          tr.Hawkset.Pipeline.trunc_stage = "collect")
        r.Hawkset.Pipeline.truncated
    with
    | [ tr ] ->
        Alcotest.(check string) "reason" "deadline" tr.Hawkset.Pipeline.trunc_reason;
        Alcotest.(check int) "total" total tr.Hawkset.Pipeline.trunc_total;
        Alcotest.(check bool) "partial" true
          (tr.Hawkset.Pipeline.trunc_done < total)
    | l ->
        Alcotest.failf "expected exactly one collect truncation, got %d"
          (List.length l)

  let expired_analyse_deadline () =
    let t = app_trace 1_000 in
    let r =
      Hawkset.Pipeline.run
        ~config:
          {
            Hawkset.Pipeline.default with
            Hawkset.Pipeline.analyse_deadline_s = Some 0.0;
          }
        t
    in
    match
      List.filter
        (fun (tr : Hawkset.Pipeline.truncation) ->
          tr.Hawkset.Pipeline.trunc_stage = "analyse")
        r.Hawkset.Pipeline.truncated
    with
    | [ tr ] ->
        Alcotest.(check string) "reason" "deadline" tr.Hawkset.Pipeline.trunc_reason;
        Alcotest.(check bool) "partial" true
          (tr.Hawkset.Pipeline.trunc_done < tr.Hawkset.Pipeline.trunc_total);
        Alcotest.(check bool) "total positive" true
          (tr.Hawkset.Pipeline.trunc_total > 0)
    | l ->
        Alcotest.failf "expected exactly one analyse truncation, got %d"
          (List.length l)

  let tests =
    [
      Alcotest.test_case "tiny event budget" `Quick tiny_event_budget;
      Alcotest.test_case "expired collect deadline" `Quick
        expired_collect_deadline;
      Alcotest.test_case "expired analyse deadline" `Quick
        expired_analyse_deadline;
    ]
end

module Pipeline_tests = struct
  (* [Pipeline.config.jobs] is inert: stage 3 always runs sequentially on
     the calling domain, so a wide setting neither grows the domain pool
     nor changes a report byte or the cache key. *)
  let jobs_field_has_no_effect () =
    let t = Truncation_tests.app_trace 1_000 in
    let pool = Hawkset.Domain_pool.global () in
    let size = Hawkset.Domain_pool.size pool in
    let wide = { Hawkset.Pipeline.default with Hawkset.Pipeline.jobs = 4 } in
    let json config =
      Hawkset.Report.to_json
        (Hawkset.Pipeline.run ~config t).Hawkset.Pipeline.races
    in
    let wide_json = json wide in
    Alcotest.(check int) "pool size unchanged" size
      (Hawkset.Domain_pool.size pool);
    Alcotest.(check string) "to_json bytes identical"
      (json Hawkset.Pipeline.default)
      wide_json;
    Alcotest.(check string) "same cache key"
      (Hawkset.Result_cache.config_fingerprint Hawkset.Pipeline.default)
      (Hawkset.Result_cache.config_fingerprint wide)

  let jobs_values = [ 1; 2; 4; 7 ]
  let json = Hawkset.Report.to_json

  (* Stage 3 of the pipeline is exactly [Analysis.run] over stage 1's
     records, whatever [jobs] says: the same report bytes, the same pair
     count, and the same registry counter delta at every setting. *)
  let run_counted config trace =
    let counters () = Obs.Registry.counters Obs.Registry.global in
    let before = counters () in
    let r = Hawkset.Pipeline.run ~config trace in
    (r, Obs.Registry.delta ~before ~after:(counters ()))

  let stage3_is_analysis_run irh =
    QCheck.Test.make
      ~name:(Printf.sprintf "stage 3 == Analysis.run, any jobs (irh=%b)" irh)
      ~count:150 Reference_tests.arb_trace
      (fun trace ->
        let base =
          if irh then Hawkset.Pipeline.default else Hawkset.Pipeline.no_irh
        in
        let direct =
          Hawkset.Analysis.run (Hawkset.Collector.collect ~irh trace)
        in
        let first, first_delta = run_counted base trace in
        json first.Hawkset.Pipeline.races = json direct.Hawkset.Analysis.report
        && first.Hawkset.Pipeline.pairs_examined = direct.Hawkset.Analysis.pairs
        && List.for_all
             (fun jobs ->
               let r, delta =
                 run_counted { base with Hawkset.Pipeline.jobs = jobs } trace
               in
               json r.Hawkset.Pipeline.races = json first.Hawkset.Pipeline.races
               && r.Hawkset.Pipeline.pairs_examined
                  = first.Hawkset.Pipeline.pairs_examined
               && delta = first_delta)
             jobs_values)

  (* The config's ablation switches reach [Analysis.run] as its [features]. *)
  let stage3_under_ablations =
    QCheck.Test.make ~name:"stage 3 == Analysis.run, ablations"
      ~count:60 Reference_tests.arb_trace
      (fun trace ->
        List.for_all
          (fun (f : Hawkset.Analysis.features) ->
            let config =
              { Hawkset.Pipeline.no_irh with
                Hawkset.Pipeline.effective_lockset = f.effective_lockset;
                timestamps = f.timestamps;
                vector_clocks = f.vector_clocks }
            in
            let direct =
              Hawkset.Analysis.run ~features:f
                (Hawkset.Collector.collect ~irh:false ~timestamps:f.timestamps
                   trace)
            in
            let r = Hawkset.Pipeline.run ~config trace in
            json r.Hawkset.Pipeline.races = json direct.Hawkset.Analysis.report
            && r.Hawkset.Pipeline.pairs_examined = direct.Hawkset.Analysis.pairs)
          [
            Hawkset.Analysis.traditional;
            { Hawkset.Analysis.all_features with vector_clocks = false };
            { Hawkset.Analysis.all_features with timestamps = false };
          ])

  (* One racing word: a [jobs] value far above the word count changes
     nothing. *)
  let more_jobs_than_words () =
    let trace =
      Trace.Tracebuf.of_list
        [
          Trace.Event.Thread_create
            { parent = Trace.Tid.main; child = Trace.Tid.of_int 1 };
          Trace.Event.Thread_create
            { parent = Trace.Tid.main; child = Trace.Tid.of_int 2 };
          Trace.Event.Store
            { tid = Trace.Tid.of_int 1; addr = 128; size = 8;
              site = Trace.Site.v "one.ml" 1; non_temporal = false };
          Trace.Event.Load
            { tid = Trace.Tid.of_int 2; addr = 128; size = 8;
              site = Trace.Site.v "one.ml" 2 };
        ]
    in
    let base = Hawkset.Pipeline.run ~config:Hawkset.Pipeline.no_irh trace in
    Alcotest.(check int) "the race is found" 1
      (Hawkset.Report.count base.Hawkset.Pipeline.races);
    List.iter
      (fun jobs ->
        let r =
          Hawkset.Pipeline.run
            ~config:{ Hawkset.Pipeline.no_irh with Hawkset.Pipeline.jobs = jobs }
            trace
        in
        Alcotest.(check string)
          (Printf.sprintf "jobs=%d: same report" jobs)
          (json base.Hawkset.Pipeline.races)
          (json r.Hawkset.Pipeline.races);
        Alcotest.(check int)
          (Printf.sprintf "jobs=%d: same pairs" jobs)
          base.Hawkset.Pipeline.pairs_examined r.Hawkset.Pipeline.pairs_examined)
      [ 2; 16; 64 ]

  let empty_trace () =
    List.iter
      (fun jobs ->
        let r =
          Hawkset.Pipeline.run
            ~config:{ Hawkset.Pipeline.default with Hawkset.Pipeline.jobs = jobs }
            (Trace.Tracebuf.of_list [])
        in
        Alcotest.(check int)
          (Printf.sprintf "jobs=%d: no races" jobs)
          0
          (Hawkset.Report.count r.Hawkset.Pipeline.races);
        Alcotest.(check int)
          (Printf.sprintf "jobs=%d: no pairs" jobs)
          0 r.Hawkset.Pipeline.pairs_examined;
        Alcotest.(check int)
          (Printf.sprintf "jobs=%d: not truncated" jobs)
          0
          (List.length r.Hawkset.Pipeline.truncated))
      jobs_values

  (* Batch and explore run whole pipelines as tasks of the global pool.
     Stage 3 never re-enters the pool, so even a wide [jobs] setting inside
     a task completes (re-entering would self-deadlock) and reports what a
     run on the calling domain reports. *)
  let wide_config_in_pool_task () =
    let t = Truncation_tests.app_trace 600 in
    let wide = { Hawkset.Pipeline.default with Hawkset.Pipeline.jobs = 4 } in
    let expected = json (Hawkset.Pipeline.run t).Hawkset.Pipeline.races in
    let outcomes =
      Hawkset.Domain_pool.run_queue (Hawkset.Domain_pool.global ()) ~workers:2
        (Array.init 3 (fun _ () ->
             json (Hawkset.Pipeline.run ~config:wide t).Hawkset.Pipeline.races))
    in
    Array.iteri
      (fun i o ->
        match o with
        | Ok j -> Alcotest.(check string) (Printf.sprintf "task %d" i) expected j
        | Error e -> Alcotest.failf "task %d failed: %s" i (Printexc.to_string e))
      outcomes

  let tests =
    [
      Alcotest.test_case "jobs field has no effect" `Quick
        jobs_field_has_no_effect;
      QCheck_alcotest.to_alcotest (stage3_is_analysis_run false);
      QCheck_alcotest.to_alcotest (stage3_is_analysis_run true);
      QCheck_alcotest.to_alcotest stage3_under_ablations;
      Alcotest.test_case "more jobs than words" `Quick more_jobs_than_words;
      Alcotest.test_case "empty trace" `Quick empty_trace;
      Alcotest.test_case "wide config inside a pool task" `Quick
        wide_config_in_pool_task;
    ]
end

module App_tests = struct
  (* Job-level width for every Table 1 application: the same trace
     analysed as concurrent tasks of a pool (how explore spreads its
     schedules) gives each task the report bytes and pair count of the
     run on the calling domain. *)
  let pool_tasks_match_sequential (entry : Pmapps.Registry.entry) () =
    let ops = Pmapps.Registry.clamp_ops entry 250 in
    let trace = (entry.Pmapps.Registry.run ~seed:11 ~ops ()).Machine.Sched.trace in
    let summary (r : Hawkset.Pipeline.result) =
      (Hawkset.Report.to_json r.Hawkset.Pipeline.races, r.Hawkset.Pipeline.pairs_examined)
    in
    let expected = summary (Hawkset.Pipeline.run trace) in
    let pool = Hawkset.Domain_pool.create () in
    Fun.protect ~finally:(fun () -> Hawkset.Domain_pool.shutdown pool)
    @@ fun () ->
    Hawkset.Domain_pool.map pool
      (Array.init 3 (fun _ () -> summary (Hawkset.Pipeline.run trace)))
    |> Array.iteri (fun i o ->
           match o with
           | Ok (races, pairs) ->
               Alcotest.(check string)
                 (Printf.sprintf "task %d races" i)
                 (fst expected) races;
               Alcotest.(check int)
                 (Printf.sprintf "task %d pairs" i)
                 (snd expected) pairs
           | Error e ->
               Alcotest.failf "task %d failed: %s" i (Printexc.to_string e))

  (* Every layer on the per-event path counts its own run and publishes
     the totals once, under the registry's lock: the nine apps drained
     through the pool at width 2 give each run the stats of width 1, and
     the registry the same totals. *)
  let registry_exact_at_width_2 () =
    let drain workers =
      Obs.Registry.reset Obs.Registry.global;
      let stats =
        Hawkset.Domain_pool.run_queue (Hawkset.Domain_pool.global ()) ~workers
          (Array.of_list
             (List.map
                (fun (e : Pmapps.Registry.entry) () ->
                  let ops = Pmapps.Registry.clamp_ops e 400 in
                  let r = e.Pmapps.Registry.run ~seed:5 ~ops () in
                  ignore (Hawkset.Pipeline.run r.Machine.Sched.trace);
                  r.Machine.Sched.stats)
                Pmapps.Registry.all))
        |> Array.map (function
             | Ok s -> s
             | Error e -> Alcotest.failf "task: %s" (Printexc.to_string e))
      in
      let layer (name, _) =
        List.exists
          (fun prefix -> String.starts_with ~prefix name)
          [ "sched."; "pmem."; "collector."; "analysis." ]
      in
      ( stats,
        List.filter layer (Obs.Registry.counters Obs.Registry.global),
        List.filter layer (Obs.Registry.histograms Obs.Registry.global) )
    in
    let stats1, counters1, hists1 = drain 1 in
    let stats2, counters2, hists2 = drain 2 in
    Array.iteri
      (fun i s ->
        Alcotest.(check bool)
          (Printf.sprintf "run %d: width-2 stats = width-1 stats" i)
          true (s = stats2.(i)))
      stats1;
    Alcotest.(check bool) "counters published" true
      (List.assoc_opt "sched.points" counters1 <> None);
    Alcotest.(check (list (pair string int))) "registry counters" counters1
      counters2;
    Alcotest.(check (list (pair string (list (pair string int)))))
      "registry histograms" hists1 hists2

  let tests =
    Alcotest.test_case "registry exact at width 2" `Slow
      registry_exact_at_width_2
    :: List.map
         (fun (e : Pmapps.Registry.entry) ->
           Alcotest.test_case e.Pmapps.Registry.reg_name `Slow
             (pool_tasks_match_sequential e))
         Pmapps.Registry.all
end

module Golden_tests = struct
  (* Hand-written traces under fixtures/ with their exact expected
     reports baked in: a regression net for the report's witness fields,
     which the reference tests only compare between two live runs. *)
  type expect = {
    e_store : string;
    e_load : string;
    e_store_tid : int;
    e_load_tid : int;
    e_addr : int;
    e_end : Hawkset.Access.end_kind;
    e_occ : int;
  }

  let check_fixture file expects () =
    let trace = Trace.Trace_io.load (Filename.concat "fixtures" file) in
    let races =
      Hawkset.Report.sorted (Hawkset.Pipeline.run trace).Hawkset.Pipeline.races
    in
    Alcotest.(check int) "race count" (List.length expects) (List.length races);
    List.iter2
      (fun e (race : Hawkset.Report.race) ->
        let ctx fmt = Printf.sprintf "%s->%s: %s" e.e_store e.e_load fmt in
        Alcotest.(check string)
          (ctx "store site")
          e.e_store
          (Trace.Site.location race.Hawkset.Report.store_site);
        Alcotest.(check string)
          (ctx "load site")
          e.e_load
          (Trace.Site.location race.Hawkset.Report.load_site);
        Alcotest.(check int)
          (ctx "store tid")
          e.e_store_tid race.Hawkset.Report.store_tid;
        Alcotest.(check int)
          (ctx "load tid")
          e.e_load_tid race.Hawkset.Report.load_tid;
        Alcotest.(check int) (ctx "addr") e.e_addr race.Hawkset.Report.addr;
        Alcotest.(check bool)
          (ctx "window end")
          true
          (race.Hawkset.Report.window_end = e.e_end);
        Alcotest.(check int)
          (ctx "occurrences")
          e.e_occ race.Hawkset.Report.occurrences)
      expects races

  (* A store published under lock 7 and loaded by another thread under the
     same lock, but persisted only after the critical section: the
     effective lockset is empty, so the lock does not protect the pair.
     The second word (persisted inside the section) must stay silent. *)
  let publish_unpersisted =
    check_fixture "publish_unpersisted.trace"
      [
        {
          e_store = "fix_a.ml:6";
          e_load = "fix_a.ml:11";
          e_store_tid = 1;
          e_load_tid = 2;
          e_addr = 128;
          e_end = Hawkset.Access.Persisted_same_thread;
          e_occ = 1;
        };
      ]

  (* An 8-byte store crossing a word boundary caught by a 4-byte load on
     its tail, plus a second witness at another address for the same site
     pair: one aggregated report with two occurrences. The disjoint-bytes
     pair and the store-store pair must stay silent. *)
  let overlap_aggregate =
    check_fixture "overlap_aggregate.trace"
      [
        {
          e_store = "fix_b.ml:3";
          e_load = "fix_b.ml:8";
          e_store_tid = 1;
          e_load_tid = 2;
          e_addr = 128;
          e_end = Hawkset.Access.Open_at_exit;
          e_occ = 2;
        };
      ]

  let tests =
    [
      Alcotest.test_case "publish before persist" `Quick publish_unpersisted;
      Alcotest.test_case "overlap aggregation" `Quick overlap_aggregate;
    ]
end

module Pool_tests = struct
  (* Lifecycle contract of the worker pool: shutdown is idempotent, and a
     submission after shutdown raises instead of parking forever on a
     stopped worker. *)
  let map_works t n =
    let r = Hawkset.Domain_pool.map t (Array.init n (fun i () -> i * i)) in
    Alcotest.(check int) "results" n (Array.length r);
    Array.iteri
      (fun i o ->
        match o with
        | Ok v -> Alcotest.(check int) (Printf.sprintf "task %d" i) (i * i) v
        | Error e -> Alcotest.failf "task %d failed: %s" i (Printexc.to_string e))
      r

  let double_shutdown () =
    let t = Hawkset.Domain_pool.create () in
    map_works t 3;
    Hawkset.Domain_pool.shutdown t;
    (* Second call must be a no-op, not a hang or a double-join crash. *)
    Hawkset.Domain_pool.shutdown t

  let post_shutdown_submit () =
    let t = Hawkset.Domain_pool.create () in
    map_works t 3;
    Hawkset.Domain_pool.shutdown t;
    Alcotest.check_raises "map after shutdown" Hawkset.Domain_pool.Pool_closed
      (fun () -> ignore (Hawkset.Domain_pool.map t [| (fun () -> ()) |]));
    Alcotest.check_raises "empty map after shutdown"
      Hawkset.Domain_pool.Pool_closed (fun () ->
        ignore (Hawkset.Domain_pool.map t ([||] : (unit -> unit) array)));
    Alcotest.check_raises "ensure after shutdown"
      Hawkset.Domain_pool.Pool_closed (fun () ->
        Hawkset.Domain_pool.ensure t 2)

  let shutdown_fresh_pool () =
    (* No workers ever spawned: both calls still succeed. *)
    let t = Hawkset.Domain_pool.create () in
    Hawkset.Domain_pool.shutdown t;
    Hawkset.Domain_pool.shutdown t;
    Alcotest.check_raises "map after shutdown" Hawkset.Domain_pool.Pool_closed
      (fun () -> ignore (Hawkset.Domain_pool.map t [| (fun () -> ()) |]))

  (* The width cap: a call wider than the pool's lanes raises before it
     spawns anything, and leaves the pool usable (lock released). *)
  let over_wide_refused () =
    let module P = Hawkset.Domain_pool in
    let t = P.create () in
    Fun.protect ~finally:(fun () -> P.shutdown t) @@ fun () ->
    map_works t 2;
    let size = P.size t in
    let raises name f =
      Alcotest.(check bool) name true
        (match f () with
        | () -> false
        | exception Invalid_argument _ -> true)
    in
    raises "ensure" (fun () -> P.ensure t P.max_slots);
    raises "map" (fun () ->
        ignore (P.map t (Array.make (P.max_slots + 1) (fun () -> ()))));
    raises "run_queue" (fun () ->
        ignore
          (P.run_queue t ~workers:(P.max_slots + 1)
             (Array.make (P.max_slots + 1) (fun () -> ()))));
    Alcotest.(check int) "size unchanged" size (P.size t);
    map_works t 2

  (* One slot runs inline: the tasks record on the caller's lane and the
     pool spawns nothing. *)
  let one_slot_inline () =
    let module P = Hawkset.Domain_pool in
    let t = P.create () in
    Fun.protect ~finally:(fun () -> P.shutdown t) @@ fun () ->
    let h = Obs.Timeline.name "pool_inline_test" in
    Obs.Timeline.set_enabled true;
    Obs.Timeline.reset ();
    Fun.protect
      ~finally:(fun () ->
        Obs.Timeline.set_enabled false;
        Obs.Timeline.reset ())
      (fun () ->
        Obs.Timeline.with_lane 3 (fun () ->
            ignore
              (P.run_queue t ~workers:1
                 [| (fun () -> Obs.Timeline.instant h ~arg:1);
                    (fun () -> Obs.Timeline.instant h ~arg:2) |]);
            ignore (P.map t [| (fun () -> Obs.Timeline.instant h ~arg:3) |]));
        Alcotest.(check (list int)) "lanes" [ 3 ] (Obs.Timeline.used_lanes ());
        Alcotest.(check (list int)) "events in order" [ 1; 2; 3 ]
          (List.map (fun e -> e.Obs.Timeline.ev_arg) (Obs.Timeline.events 3)));
    Alcotest.(check int) "nothing spawned" 0 (P.size t)

  let tests =
    [
      Alcotest.test_case "over-wide calls refused" `Quick over_wide_refused;
      Alcotest.test_case "one slot runs inline" `Quick one_slot_inline;
      Alcotest.test_case "double shutdown is a no-op" `Quick double_shutdown;
      Alcotest.test_case "post-shutdown submit raises" `Quick
        post_shutdown_submit;
      Alcotest.test_case "shutdown of a fresh pool" `Quick shutdown_fresh_pool;
    ]
end

(* A trace's site table is structural: a site's id does not depend on
   which value an event carries. Number a trace's distinct sites 0, 1,
   ... and rename site [i] two ways: to line [i + 1] of file [s<i>.ml]
   (the reference), or to line 1 or 257 of the same file, half of them
   on one line, with one shared site per distinct site or a fresh copy
   in every event. All three must give the same report bytes, up to the
   line numbers. *)
module Site_sharing_tests = struct
  let with_site ev (f : Trace.Site.t -> Trace.Site.t) =
    match ev with
    | Trace.Event.Store r -> Trace.Event.Store { r with site = f r.site }
    | Trace.Event.Load r -> Trace.Event.Load { r with site = f r.site }
    | Trace.Event.Flush r -> Trace.Event.Flush { r with site = f r.site }
    | Trace.Event.Fence r -> Trace.Event.Fence { r with site = f r.site }
    | Trace.Event.Lock_acquire r ->
        Trace.Event.Lock_acquire { r with site = f r.site }
    | Trace.Event.Lock_release r ->
        Trace.Event.Lock_release { r with site = f r.site }
    | (Trace.Event.Thread_create _ | Trace.Event.Thread_join _) as ev -> ev

  (* [rename trace line ~share]: site [i] becomes [s<i>.ml:(line i)]. *)
  let rename trace line ~share =
    let index = Hashtbl.create 64 and shared = Hashtbl.create 64 in
    let site i = Trace.Site.v (Printf.sprintf "s%d.ml" i) (line i) in
    let f st =
      let i =
        match Hashtbl.find_opt index st with
        | Some i -> i
        | None ->
            let i = Hashtbl.length index in
            Hashtbl.add index st i;
            i
      in
      if not share then site i
      else
        match Hashtbl.find_opt shared i with
        | Some v -> v
        | None ->
            let v = site i in
            Hashtbl.add shared i v;
            v
    in
    Trace.Tracebuf.of_list
      (List.map (fun ev -> with_site ev f) (Trace.Tracebuf.to_list trace))

  let report_json trace =
    Hawkset.Report.to_json (Hawkset.Pipeline.run trace).Hawkset.Pipeline.races

  (* Collided line numbers back to the reference's. *)
  let unfold json =
    Str.global_substitute
      (Str.regexp {|"file":"s\([0-9]+\)\.ml","line":[0-9]+|})
      (fun j ->
        let i = int_of_string (Str.matched_group 1 j) in
        Printf.sprintf {|"file":"s%d.ml","line":%d|} i (i + 1))
      json

  (* The reference, and the collided runs shared and copied. *)
  let three trace =
    let reference = rename trace (fun i -> i + 1) ~share:true in
    let collided share =
      unfold (report_json (rename trace (fun i -> 1 + (256 * (i land 1))) ~share))
    in
    (report_json reference, collided true, collided false)

  let collisions_and_copies_match =
    QCheck.Test.make ~name:"colliding and copied sites == reference"
      ~count:200 Reference_tests.arb_trace (fun trace ->
        let reference, shared, copied = three trace in
        reference = shared && reference = copied)

  let app_trace () =
    let reference, shared, copied = three (Truncation_tests.app_trace 600) in
    Alcotest.(check bool) "the trace reports races" true (reference <> "[]");
    Alcotest.(check string) "colliding shared sites" reference shared;
    Alcotest.(check string) "colliding copied sites" reference copied

  let tests =
    [
      QCheck_alcotest.to_alcotest collisions_and_copies_match;
      Alcotest.test_case "app trace" `Quick app_trace;
    ]
end

let () =
  Alcotest.run "hawkset"
    [
      ("lockset", Lockset_tests.tests);
      ("vclock", Vclock_tests.tests);
      ("collector", Collector_tests.tests);
      ("analysis", Analysis_tests.tests);
      ("report", Report_tests.tests);
      ("reference", Reference_tests.tests);
      ("eadr", Eadr_tests.tests);
      ("truncation", Truncation_tests.tests);
      ("pipeline", Pipeline_tests.tests);
      ("apps", App_tests.tests);
      ("golden", Golden_tests.tests);
      ("pool", Pool_tests.tests);
      ("site_sharing", Site_sharing_tests.tests);
    ]
