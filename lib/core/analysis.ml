type features = {
  effective_lockset : bool;
  timestamps : bool;
  vector_clocks : bool;
}

let all_features =
  { effective_lockset = true; timestamps = true; vector_clocks = true }

let traditional =
  { effective_lockset = false; timestamps = false; vector_clocks = true }

type outcome = {
  report : Report.t;
  pairs : int;
  words_analysed : int;
  words_total : int;
}

(* Observability counters for the §4 optimisations: how much work the
   memoisation and happens-before pruning actually save. All bumps happen
   on deterministic control paths — exact values are seed-reproducible.
   The memo hit/miss split is derived from totals (misses = distinct keys,
   hits = lookups - misses), which makes the values independent of the
   word iteration order. *)
let obs_ls_memo_hits = Obs.Registry.counter "analysis.lockset_memo_hits"
let obs_ls_memo_misses = Obs.Registry.counter "analysis.lockset_memo_misses"
let obs_vc_memo_hits = Obs.Registry.counter "analysis.vclock_memo_hits"
let obs_vc_comparisons = Obs.Registry.counter "analysis.vclock_comparisons"

(* These three are bumped through per-run {!Obs.Buffer} cells and reach
   the registry at flush time; registering them here keeps their zero
   values in snapshots taken before the first analysis. *)
let () =
  List.iter
    (fun name -> ignore (Obs.Registry.counter name : Obs.Metric.counter))
    [
      "analysis.pairs_examined"; "analysis.pairs_pruned_hb";
      "analysis.races_reported";
    ]

(* Memo tables for the interned-id comparisons: a pair of ids becomes
   one int key ({!Trace.Packed_key.pair}) probed in an open-addressing
   map — no tuple allocation, no polymorphic hashing. [pair] raises on
   an id of 2^31 or more rather than collide (unreachable for dense
   interner ids). Truth values are stored as 0/1 because
   {!Trace.Int_tbl.Map.find} returns -1 for absent. *)
type memo = {
  p_disjoint : Trace.Int_tbl.Map.t;
  p_leq : Trace.Int_tbl.Map.t;
  mutable ls_lookups : int;
  mutable vc_lookups : int;
}

let make_memo () =
  {
    p_disjoint = Trace.Int_tbl.Map.create ~size:512 ();
    p_leq = Trace.Int_tbl.Map.create ~size:512 ();
    ls_lookups = 0;
    vc_lookups = 0;
  }

type stats = {
  buf : Obs.Buffer.t;
  s_pairs : Obs.Buffer.cell;
  s_pruned_hb : Obs.Buffer.cell;
  s_races : Obs.Buffer.cell;
}

let make_stats () =
  let buf = Obs.Buffer.create () in
  {
    buf;
    s_pairs = Obs.Buffer.cell buf "analysis.pairs_examined";
    s_pruned_hb = Obs.Buffer.cell buf "analysis.pairs_pruned_hb";
    s_races = Obs.Buffer.cell buf "analysis.races_reported";
  }

(* Fault injection points for [hawkset check --mutate]. The faulted
   value is what gets memoized, so a seeded fault stays self-consistent
   within one analysis — only the verdicts (or, for the key fault, the
   table addressing) are wrong. Disarmed, each probe is one ref read. *)
let raw_disjoint ~tables a b =
  Fault.on Fault.Drop_lockset_intersection
  || Lockset.disjoint_locks
       (Access.Ls_table.get tables.Access.ls a)
       (Access.Ls_table.get tables.Access.ls b)

let pair_key a b =
  let a = if Fault.on Fault.Widen_packed_key then a land 1 else a in
  Trace.Packed_key.pair a b

(* Memoized comparisons on interned ids (§4: "direct comparison"). *)
let disjoint ~tables ~memo a b =
  memo.ls_lookups <- memo.ls_lookups + 1;
  let key = pair_key a b in
  match Trace.Int_tbl.Map.find memo.p_disjoint key with
  | -1 ->
      let r = raw_disjoint ~tables a b in
      Trace.Int_tbl.Map.set memo.p_disjoint key (Bool.to_int r);
      r
  | v -> v <> 0

let leq ~tables ~memo a b =
  memo.vc_lookups <- memo.vc_lookups + 1;
  let key = pair_key a b in
  match Trace.Int_tbl.Map.find memo.p_leq key with
  | -1 ->
      let r =
        Vclock.leq
          (Access.Vc_table.get tables.Access.vc a)
          (Access.Vc_table.get tables.Access.vc b)
      in
      Trace.Int_tbl.Map.set memo.p_leq key (Bool.to_int r);
      r
  | v -> v <> 0

(* The load may fall inside the store's visible-but-not-durable window:
   it must not happen-before the store, and the window's end (the
   persistency, §3.1.2's Persist3 discussion) must not happen-before the
   load. A window that never closed can race with anything after the
   store. *)
let may_overlap_window ~features ~tables ~memo (w : Access.window)
    (l : Access.load) =
  Fault.on Fault.Skip_vclock_check
  || (not features.vector_clocks)
  || (not (leq ~tables ~memo l.Access.l_vec w.Access.w_store_vec))
     &&
     match w.Access.w_end_vec with
     | None -> true
     | Some e -> not (leq ~tables ~memo e l.Access.l_vec)

let analyse_slot ~features ~memo ~stats (c : Collector.result) slot report =
  let wi = c.Collector.slots.(slot) in
  let windows = c.Collector.windows_of.(wi) in
  if Array.length windows = 0 then report
  else begin
    let word = c.Collector.words.(wi) in
    let loads = c.Collector.loads_of.(wi) in
    let tables = c.Collector.tables in
    let report = ref report in
    for li = 0 to Array.length loads - 1 do
      let l = loads.(li) in
      for wj = 0 to Array.length windows - 1 do
        let w = windows.(wj) in
        (* Examine each (window, load) pair at one canonical word even
           when the ranges share several. *)
        let canonical =
          Pmem.Layout.word_index (max w.Access.w_addr l.Access.l_addr)
        in
        if
          canonical = word
          && w.Access.w_tid <> l.Access.l_tid
          && Pmem.Layout.ranges_overlap w.Access.w_addr w.Access.w_size
               l.Access.l_addr l.Access.l_size
        then begin
          Obs.Buffer.incr stats.s_pairs;
          if not (may_overlap_window ~features ~tables ~memo w l) then
            Obs.Buffer.incr stats.s_pruned_hb
          else
            let store_ls =
              if features.effective_lockset then w.Access.w_eff
              else w.Access.w_store_ls
            in
            if disjoint ~tables ~memo store_ls l.Access.l_ls then begin
              Obs.Buffer.incr stats.s_races;
              (* Forced only when this pair opens a new report, so the
                 interning-table resolution is off the per-occurrence
                 path. *)
              let witness () =
                let locks id =
                  List.map Trace.Lock_id.to_int
                    (Lockset.locks (Access.Ls_table.get tables.Access.ls id))
                in
                let vec id =
                  Vclock.to_list (Access.Vc_table.get tables.Access.vc id)
                in
                {
                  Report.wt_store_locks = locks w.Access.w_store_ls;
                  wt_eff_locks = locks w.Access.w_eff;
                  wt_load_locks = locks l.Access.l_ls;
                  wt_store_vec = vec w.Access.w_store_vec;
                  wt_end_vec = Option.map vec w.Access.w_end_vec;
                  wt_load_vec = vec l.Access.l_vec;
                }
              in
              report :=
                Report.add ~witness !report ~store_site:w.Access.w_site
                  ~load_site:l.Access.l_site ~store_tid:w.Access.w_tid
                  ~load_tid:l.Access.l_tid
                  ~addr:(max w.Access.w_addr l.Access.l_addr)
                  ~window_end:w.Access.w_end
            end
        end
      done
    done;
    !report
  end

let tl_seq = Obs.Timeline.name "analysis.sequential"

let run ?(features = all_features) ?stop (c : Collector.result) =
  let memo = make_memo () in
  let stats = make_stats () in
  let nslots = Array.length c.Collector.slots in
  let report = ref Report.empty in
  let analysed = ref 0 in
  Obs.Timeline.begin_ tl_seq ~arg:nslots;
  (* Word boundaries are the cancellation points: a deadline never tears a
     word's pair enumeration, so a truncated report is exactly the full
     analysis of the words it did visit. *)
  (try
     for slot = 0 to nslots - 1 do
       (match stop with
       | Some f when f () -> raise Exit
       | Some _ | None -> ());
       report := analyse_slot ~features ~memo ~stats c slot !report;
       incr analysed
     done
   with Exit -> ());
  Obs.Timeline.end_ tl_seq ~arg:!analysed;
  let pairs = Obs.Buffer.value stats.s_pairs in
  Obs.Buffer.flush stats.buf;
  (* Misses are the distinct keys probed. *)
  let ls_misses = Trace.Int_tbl.Map.length memo.p_disjoint
  and vc_misses = Trace.Int_tbl.Map.length memo.p_leq in
  Obs.Metric.add obs_ls_memo_misses ls_misses;
  Obs.Metric.add obs_ls_memo_hits (memo.ls_lookups - ls_misses);
  Obs.Metric.add obs_vc_comparisons vc_misses;
  Obs.Metric.add obs_vc_memo_hits (memo.vc_lookups - vc_misses);
  Obs.Logger.debug ~section:"analysis" (fun () ->
      Printf.sprintf "analyse: %d pairs examined, %d reports" pairs
        (Report.count !report));
  {
    report = !report;
    pairs;
    words_analysed = !analysed;
    words_total = nslots;
  }
