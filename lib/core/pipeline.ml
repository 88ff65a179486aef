type config = {
  irh : bool;
  effective_lockset : bool;
  timestamps : bool;
  vector_clocks : bool;
  eadr : bool;
  jobs : int;
  event_budget : int option;
  collect_deadline_s : float option;
  analyse_deadline_s : float option;
}

let default =
  { irh = true; effective_lockset = true; timestamps = true;
    vector_clocks = true; eadr = false; jobs = 1;
    event_budget = None; collect_deadline_s = None;
    analyse_deadline_s = None }

let no_irh = { default with irh = false }

type truncation = {
  trunc_stage : string;
  trunc_reason : string;
  trunc_done : int;
  trunc_total : int;
}

type result = {
  races : Report.t;
  collector_stats : Collector.stats;
  pairs_examined : int;
  analysis_seconds : float;
  truncated : truncation list;
}

let tl_truncation = Obs.Timeline.name "pipeline.truncation"

(* A [stop] predicate that trips once [deadline_s] wall-clock seconds have
   elapsed from its creation. [None] deadline never trips. *)
let deadline_stop = function
  | None -> None
  | Some deadline_s ->
      let t0 = Unix.gettimeofday () in
      Some (fun () -> Unix.gettimeofday () -. t0 > deadline_s)

let run ?(config = default) trace =
  let t0 = Unix.gettimeofday () in
  let truncated = ref [] in
  let note t =
    Obs.Registry.publish [ ("pipeline.truncations", 1) ];
    Obs.Timeline.instant tl_truncation ~arg:t.trunc_done;
    Obs.Logger.warn ~section:"pipeline" (fun () ->
        Printf.sprintf "truncated %s (%s): %d of %d" t.trunc_stage
          t.trunc_reason t.trunc_done t.trunc_total);
    truncated := t :: !truncated
  in
  (* Event budget: a deterministic cut — analysing the budget-sized prefix
     of the trace, unlike the wall-clock deadlines below. *)
  let total_events = Trace.Tracebuf.length trace in
  let trace =
    match config.event_budget with
    | Some budget when total_events > budget ->
        note
          { trunc_stage = "collect"; trunc_reason = "event_budget";
            trunc_done = budget; trunc_total = total_events };
        Trace.Tracebuf.prefix trace budget
    | Some _ | None -> trace
  in
  let collected, outcome =
    Obs.Registry.with_span ~arg:(Trace.Tracebuf.length trace) "pipeline"
      (fun () ->
        let collected =
          Obs.Registry.with_span "pipeline.collect" (fun () ->
              Collector.collect ~irh:config.irh ~timestamps:config.timestamps
                ~eadr:config.eadr
                ?stop:(deadline_stop config.collect_deadline_s)
                trace)
        in
        let consumed = collected.Collector.stats.Collector.c_events in
        if consumed < Trace.Tracebuf.length trace then
          note
            { trunc_stage = "collect"; trunc_reason = "deadline";
              trunc_done = consumed;
              trunc_total = Trace.Tracebuf.length trace };
        let features =
          {
            Analysis.effective_lockset = config.effective_lockset;
            timestamps = config.timestamps;
            vector_clocks = config.vector_clocks;
          }
        in
        let outcome =
          Obs.Registry.with_span "pipeline.analyse" (fun () ->
              Analysis.run ~features
                ?stop:(deadline_stop config.analyse_deadline_s)
                collected)
        in
        if outcome.Analysis.words_analysed < outcome.Analysis.words_total then
          note
            { trunc_stage = "analyse";
              trunc_reason = "deadline";
              trunc_done = outcome.Analysis.words_analysed;
              trunc_total = outcome.Analysis.words_total };
        (collected, outcome))
  in
  let t1 = Unix.gettimeofday () in
  {
    races = outcome.Analysis.report;
    collector_stats = collected.Collector.stats;
    pairs_examined = outcome.Analysis.pairs;
    analysis_seconds = t1 -. t0;
    truncated = List.rev !truncated;
  }

let races ?config trace = (run ?config trace).races
