type row = {
  cs_runner : Crashtest.runner;
  cs_sweep : Crashtest.sweep;
}

let run ?config ?(apps = []) () =
  let runners =
    match apps with
    | [] -> Crashtest.runners
    | names ->
        List.filter_map
          (fun n ->
            match Crashtest.runner_for n with
            | Some r -> Some r
            | None ->
                Obs.Logger.warn ~section:"crashtest" (fun () ->
                    Printf.sprintf "no crash-sweep runner for %S (skipped)" n);
                None)
          names
  in
  List.map
    (fun r -> { cs_runner = r; cs_sweep = Crashtest.run_sweep ?config r })
    runners

let manifested_string = function
  | [] -> "-"
  | ids -> String.concat "," (List.map (fun i -> "#" ^ string_of_int i) ids)

let to_string rows =
  let header = Tables.section "Crash sweep (fence + stride fault injection)" in
  let body =
    Tables.render
      ~headers:
        [ "Application"; "Points"; "Clean"; "Damaged"; "Recovery failed";
          "Completed"; "Manifested bugs"; "Control" ]
      ~rows:
        (List.map
           (fun { cs_runner; cs_sweep = s } ->
             [
               s.Crashtest.sw_app;
               string_of_int (List.length s.Crashtest.sw_points);
               string_of_int s.Crashtest.sw_clean;
               string_of_int s.Crashtest.sw_damaged;
               string_of_int s.Crashtest.sw_raised;
               string_of_int s.Crashtest.sw_completed;
               manifested_string s.Crashtest.sw_manifested;
               (if cs_runner.Crashtest.r_expect_clean then
                  if s.Crashtest.sw_damaged = 0 && s.Crashtest.sw_raised = 0
                  then "clean (as expected)"
                  else "DAMAGED (unexpected!)"
                else "-");
             ])
           rows)
  in
  header ^ body

let details_string { cs_sweep = s; _ } =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Tables.section (Printf.sprintf "%s: per-point outcomes" s.Crashtest.sw_app));
  Buffer.add_string buf
    (Tables.render
       ~headers:[ "Crash point"; "Events"; "Acked"; "At-risk B"; "Outcome"; "Bugs" ]
       ~rows:
         (List.map
            (fun (p : Crashtest.point) ->
              [
                Format.asprintf "%a" Crashtest.pp_crash p.Crashtest.pt_crash;
                string_of_int p.Crashtest.pt_events;
                string_of_int p.Crashtest.pt_acked;
                string_of_int p.Crashtest.pt_at_risk;
                (match p.Crashtest.pt_outcome with
                | None -> "completed"
                | Some Crashtest.Clean -> "clean"
                | Some (Crashtest.Damaged msgs) ->
                    Printf.sprintf "damaged (%d)" (List.length msgs)
                | Some (Crashtest.Recovery_raised _) -> "recovery raised");
                manifested_string p.Crashtest.pt_bugs;
              ])
            s.Crashtest.sw_points));
  Buffer.contents buf

let manifest_of_sweeps rows =
  let counters =
    Obs.Manifest.active (Obs.Registry.counters Obs.Registry.global)
  in
  let labels =
    ("harness", "crash-sweep")
    :: List.concat_map
         (fun { cs_sweep = s; _ } ->
           [
             ( "sweep." ^ s.Crashtest.sw_app,
               Printf.sprintf "points=%d clean=%d damaged=%d raised=%d \
                               manifested=%s"
                 (List.length s.Crashtest.sw_points) s.Crashtest.sw_clean
                 s.Crashtest.sw_damaged s.Crashtest.sw_raised
                 (manifested_string s.Crashtest.sw_manifested) );
           ])
         rows
  in
  Obs.Manifest.make ~labels ~counters ()
