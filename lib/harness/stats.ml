(* Shared observability plumbing for the CLI and the tests: one measured
   run with the global registry reset at the start, peak-heap sampling
   around the whole thing, and a run manifest snapshotted from the
   registry at the end. Keeping this here (not in bin/) lets tests assert
   the exact artifact the CLI emits. *)

type run = {
  sched_report : Machine.Sched.report;
  pipeline : Hawkset.Pipeline.result;
  manifest : Obs.Manifest.t;
}

let obs_distinct_races = Obs.Registry.counter "report.distinct_races"

let tl_run = Obs.Timeline.name "run"
let tl_execute = Obs.Timeline.name "run.execute"

let base_labels ~app ~detector ~seed ~ops =
  [
    ("app", app);
    ("detector", detector);
    ("seed", string_of_int seed);
    ("ops", string_of_int ops);
  ]

let measured ~labels f =
  let reg = Obs.Registry.global in
  Obs.Registry.reset reg;
  let r, peak_mb = Metrics.with_live_mb f in
  let gauges =
    [ ("peak_live_mb", peak_mb); ("final_live_mb", Metrics.final_live_mb ()) ]
  in
  (r, Obs.Manifest.of_registry ~labels ~extra_gauges:gauges reg)

let analyse ?config trace =
  let res = Hawkset.Pipeline.run ?config trace in
  Obs.Metric.add obs_distinct_races
    (Hawkset.Report.count res.Hawkset.Pipeline.races);
  res

let instrumented_run ?config ~entry ~seed ~ops () =
  let labels =
    base_labels ~app:entry.Pmapps.Registry.reg_name ~detector:"hawkset" ~seed
      ~ops
  in
  let (sched_report, pipeline), manifest =
    measured ~labels (fun () ->
        Obs.Registry.with_span "run" (fun () ->
            Obs.Timeline.begin_ tl_run;
            Fun.protect ~finally:(fun () -> Obs.Timeline.end_ tl_run)
            @@ fun () ->
            let sched_report =
              Obs.Registry.with_span "execute" (fun () ->
                  Obs.Timeline.begin_ tl_execute;
                  Fun.protect
                    ~finally:(fun () -> Obs.Timeline.end_ tl_execute)
                    (fun () -> entry.Pmapps.Registry.run ~seed ~ops ()))
            in
            (sched_report, analyse ?config sched_report.Machine.Sched.trace)))
  in
  { sched_report; pipeline; manifest }

(* --- human rendering -------------------------------------------------- *)

let render (m : Obs.Manifest.t) =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Tables.section "Run stats");
  if m.Obs.Manifest.labels <> [] then begin
    Buffer.add_string b
      (String.concat "  "
         (List.map (fun (k, v) -> k ^ "=" ^ v) m.Obs.Manifest.labels));
    Buffer.add_string b "\n\n"
  end;
  if m.Obs.Manifest.stages <> [] then begin
    (* Span paths are slash-joined; sorting by path puts every span right
       after its ancestors ('/' sorts before any path character we use),
       so the sorted list is a DFS preorder and indentation by depth
       renders the tree. Each row also shows its share of the nearest
       recorded ancestor's time. *)
    let stages =
      List.sort
        (fun (a : Obs.Manifest.stage) b ->
          String.compare a.Obs.Manifest.stage_name b.Obs.Manifest.stage_name)
        m.Obs.Manifest.stages
    in
    let seconds_of = Hashtbl.create 16 in
    List.iter
      (fun (s : Obs.Manifest.stage) ->
        Hashtbl.replace seconds_of s.Obs.Manifest.stage_name
          s.Obs.Manifest.stage_seconds)
      stages;
    let rec parent_seconds path =
      match String.rindex_opt path '/' with
      | None -> None
      | Some i -> (
          let prefix = String.sub path 0 i in
          match Hashtbl.find_opt seconds_of prefix with
          | Some s -> Some s
          | None -> parent_seconds prefix)
    in
    let depth path =
      String.fold_left (fun n c -> if c = '/' then n + 1 else n) 0 path
    in
    let label path =
      let last =
        match String.rindex_opt path '/' with
        | None -> path
        | Some i -> String.sub path (i + 1) (String.length path - i - 1)
      in
      String.make (2 * depth path) ' ' ^ last
    in
    Buffer.add_string b
      (Tables.render
         ~headers:[ "Span"; "Count"; "Seconds"; "% of parent" ]
         ~rows:
           (List.map
              (fun (s : Obs.Manifest.stage) ->
                let pct =
                  match parent_seconds s.Obs.Manifest.stage_name with
                  | Some p when p > 0.0 ->
                      Printf.sprintf "%.1f%%"
                        (100.0 *. s.Obs.Manifest.stage_seconds /. p)
                  | Some _ | None -> "-"
                in
                [
                  label s.Obs.Manifest.stage_name;
                  string_of_int s.Obs.Manifest.stage_count;
                  Printf.sprintf "%.4f" s.Obs.Manifest.stage_seconds;
                  pct;
                ])
              stages))
  end;
  let counter_rows =
    List.map
      (fun (k, v) -> [ k; string_of_int v ])
      m.Obs.Manifest.counters
    @ List.concat_map
        (fun (name, cells) ->
          List.map
            (fun (k, v) -> [ name ^ "/" ^ k; string_of_int v ])
            cells)
        m.Obs.Manifest.histograms
  in
  if counter_rows <> [] then
    Buffer.add_string b
      (Tables.render ~headers:[ "Counter (deterministic)"; "Value" ]
         ~rows:counter_rows);
  if m.Obs.Manifest.gauges <> [] then
    Buffer.add_string b
      (Tables.render ~headers:[ "Gauge (measured)"; "Value" ]
         ~rows:
           (List.map
              (fun (k, v) -> [ k; Printf.sprintf "%.3f" v ])
              m.Obs.Manifest.gauges));
  Buffer.contents b
