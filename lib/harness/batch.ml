(* Pure presentation on top of {!Supervise}: the degradation table and
   the one-line verdict printed by [hawkset batch]. *)

let failure_history = function
  | [] -> "-"
  | fs -> String.concat "," (List.map Supervise.failure_to_string fs)

let degradation_table (b : Supervise.batch) =
  let row (jr : Supervise.job_result) =
    let j = jr.Supervise.jr_job in
    let attempts, failures, truncations =
      match jr.Supervise.jr_status with
      | Supervise.Done { d_attempts; d_failures; d_truncations; _ } ->
          ( string_of_int d_attempts,
            failure_history d_failures,
            string_of_int d_truncations )
      | Supervise.Gave_up { g_attempts; g_failures } ->
          (string_of_int g_attempts, failure_history g_failures, "-")
      | Supervise.Quarantined -> ("0", "-", "-")
    in
    [
      string_of_int j.Supervise.j_id;
      j.Supervise.j_app;
      string_of_int j.Supervise.j_seed;
      j.Supervise.j_policy;
      Supervise.status_string jr.Supervise.jr_status;
      attempts;
      failures;
      truncations;
      (if jr.Supervise.jr_replayed then "yes" else "no");
    ]
  in
  Tables.section "Batch degradation"
  ^ Tables.render
      ~headers:
        [ "Job"; "Application"; "Seed"; "Policy"; "Status"; "Attempts";
          "Failures"; "Truncations"; "Replayed" ]
      ~rows:(List.map row b.Supervise.b_results)

let summary_line (b : Supervise.batch) =
  let get k =
    match List.assoc_opt k (Supervise.summary b) with Some n -> n | None -> 0
  in
  let qualifiers =
    List.filter_map
      (fun (k, label) ->
        let n = get k in
        if n > 0 then Some (Printf.sprintf "%d %s" n label) else None)
      [
        ("ok_retried", "retried");
        ("ok_truncated", "truncated");
      ]
  in
  Printf.sprintf "batch: %d jobs, %d ok%s, %d failed, %d quarantined%s"
    (get "jobs") (get "ok")
    (match qualifiers with
    | [] -> ""
    | qs -> " (" ^ String.concat ", " qs ^ ")")
    (get "failed") (get "quarantined")
    (if b.Supervise.b_interrupted then " [interrupted]" else "")

let failed (b : Supervise.batch) =
  b.Supervise.b_interrupted
  || List.exists
       (fun (jr : Supervise.job_result) ->
         match jr.Supervise.jr_status with
         | Supervise.Gave_up _ | Supervise.Quarantined -> true
         | Supervise.Done _ -> false)
       b.Supervise.b_results
