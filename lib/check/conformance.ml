type divergence = {
  d_variant : string;
  d_kind : [ `Report | `Crash ];
  d_expected : string;
  d_actual : string;
}

(* check.* observability: counters for the CLI's --stats, timeline spans
   so a fuzzing run shows up in the Perfetto export. *)
let obs_traces = Obs.Registry.counter "check.traces"
let obs_events = Obs.Registry.counter "check.events"
let obs_comparisons = Obs.Registry.counter "check.comparisons"
let obs_divergences = Obs.Registry.counter "check.divergences"
let obs_minimize_probes = Obs.Registry.counter "check.minimize_probes"
let obs_faults_caught = Obs.Registry.counter "check.faults_caught"
let obs_faults_missed = Obs.Registry.counter "check.faults_missed"
let tl_fuzz = Obs.Timeline.name "check.fuzz"
let tl_minimize = Obs.Timeline.name "check.minimize"
let tl_hunt = Obs.Timeline.name "check.hunt"
let tl_divergence = Obs.Timeline.name "check.divergence"

(* Comparisons run in this process (mirrors [obs_comparisons], readable
   without a registry snapshot — fuzz reports delta it). *)
let comparisons_run = ref 0

let check_variant acc ~variant ~expected f =
  incr comparisons_run;
  Obs.Metric.incr obs_comparisons;
  match f () with
  | actual ->
      if String.equal actual expected then acc
      else
        { d_variant = variant; d_kind = `Report; d_expected = expected;
          d_actual = actual }
        :: acc
  | exception e ->
      { d_variant = variant; d_kind = `Crash; d_expected = expected;
        d_actual = Printexc.to_string e }
      :: acc

let divergences trace =
  let len = Trace.Tracebuf.length trace in
  (* The event-budget dimension: the full trace plus a truncating prefix
     (the spec applies the same deterministic cut). *)
  let budgets =
    (None, "full")
    :: (if len > 3 then [ (Some (2 * len / 3), "prefix") ] else [])
  in
  let divs =
    List.concat_map
      (fun (budget, bname) ->
        let cut =
          match budget with
          | Some b -> Trace.Tracebuf.prefix trace b
          | None -> trace
        in
        let expected =
          Hawkset.Report.to_json (Hawkset.Reference.pipeline cut)
        in
        (* The assembled pipeline (event budget applied inside): the
           collector + analysis path every front end takes. *)
        let acc =
          check_variant [] ~variant:("pipeline budget=" ^ bname) ~expected
            (fun () ->
              let config =
                { Hawkset.Pipeline.default with event_budget = budget }
              in
              Hawkset.Report.to_json
                (Hawkset.Pipeline.run ~config cut).Hawkset.Pipeline.races)
        in
        (* Result cache, cold then warm: a complete run's bytes stored
           under (trace fingerprint, config fingerprint) must come back
           verbatim — and still equal the specification's. Budget runs
           are truncated results, which the cache contract excludes. *)
        let acc =
          if budget <> None then acc
          else
            let cache = Hawkset.Result_cache.create () in
            let run () =
              fst
                (Hawkset.Result_cache.run_cached ~cache
                   ~config:Hawkset.Pipeline.default cut)
            in
            check_variant acc ~variant:"cache cold+warm" ~expected (fun () ->
                ignore (run ());
                let warm = run () in
                let stat k = List.assoc k (Hawkset.Result_cache.stats cache) in
                if stat "cache.misses" <> 1 || stat "cache.hits" <> 1 then
                  failwith "cache: expected one cold miss, then one warm hit";
                warm.Hawkset.Result_cache.e_races_json)
        in
        List.rev acc)
      budgets
  in
  if divs <> [] then begin
    Obs.Metric.add obs_divergences (List.length divs);
    Obs.Timeline.instant tl_divergence ~arg:(List.length divs)
  end;
  divs

let failing trace = divergences trace <> []

(* ------------------------------------------------------------------ *)
(* Delta debugging                                                     *)
(* ------------------------------------------------------------------ *)

(* Split [l] into [n] near-equal contiguous chunks. *)
let split_chunks l n =
  let len = List.length l in
  let base = len / n and extra = len mod n in
  let rec go i rest acc =
    if i >= n then List.rev acc
    else
      let take = base + if i < extra then 1 else 0 in
      let rec grab k xs got =
        if k = 0 then (List.rev got, xs)
        else
          match xs with
          | [] -> (List.rev got, [])
          | x :: xs -> grab (k - 1) xs (x :: got)
      in
      let chunk, rest = grab take rest [] in
      go (i + 1) rest (chunk :: acc)
  in
  go 0 l []

let minimize ?failing:(pred = failing) trace =
  let test evs =
    Obs.Metric.incr obs_minimize_probes;
    pred (Trace.Tracebuf.of_list evs)
  in
  let events = Trace.Tracebuf.to_list trace in
  if not (test events) then
    invalid_arg "Conformance.minimize: trace does not fail";
  Obs.Timeline.begin_ tl_minimize ~arg:(List.length events);
  (* Zeller-Hildebrandt ddmin. Termination at granularity = length
     means no single-event removal fails: the result is 1-minimal. *)
  let rec ddmin events n =
    let len = List.length events in
    if len <= 1 then events
    else begin
      let chunks = split_chunks events (min n len) in
      let rec try_subsets = function
        | [] -> try_complements chunks []
        | c :: rest -> if test c then Some (c, 2) else try_subsets rest
      and try_complements todo before =
        match todo with
        | [] -> None
        | c :: rest ->
            let complement = List.concat (List.rev_append before rest) in
            if complement <> [] && test complement then
              Some (complement, max (n - 1) 2)
            else try_complements rest (c :: before)
      in
      match try_subsets chunks with
      | Some (subset, n') -> ddmin subset n'
      | None -> if n < len then ddmin events (min len (2 * n)) else events
    end
  in
  let minimal = ddmin events 2 in
  Obs.Timeline.end_ tl_minimize ~arg:(List.length minimal);
  Trace.Tracebuf.of_list minimal

(* ------------------------------------------------------------------ *)
(* Fuzzing and the mutation self-test                                  *)
(* ------------------------------------------------------------------ *)

type fuzz_report = {
  fz_traces : int;
  fz_events : int;
  fz_comparisons : int;
  fz_failures : (int * Trace.Tracebuf.t * divergence) list;
}

let fuzz ?(traces = 1000) ?(max_events = 64) ?(seed = 42)
    ?(max_failures = 5) () =
  Obs.Timeline.begin_ tl_fuzz ~arg:traces;
  let comparisons0 = !comparisons_run in
  let ran = ref 0 and events = ref 0 and failures = ref [] in
  (try
     for i = 0 to traces - 1 do
       if List.length !failures >= max_failures then raise Exit;
       let t = Gen.trace ~max_events ~seed:(seed + i) () in
       incr ran;
       events := !events + Trace.Tracebuf.length t;
       Obs.Metric.incr obs_traces;
       Obs.Metric.add obs_events (Trace.Tracebuf.length t);
       match divergences t with
       | [] -> ()
       | d :: _ -> failures := (seed + i, t, d) :: !failures
     done
   with Exit -> ());
  Obs.Timeline.end_ tl_fuzz ~arg:!ran;
  {
    fz_traces = !ran;
    fz_events = !events;
    fz_comparisons = !comparisons_run - comparisons0;
    fz_failures = List.rev !failures;
  }

type hunt_report = {
  h_fault : Hawkset.Fault.t;
  h_caught_seed : int option;
  h_original_events : int;
  h_minimized : Trace.Tracebuf.t option;
  h_divergence : divergence option;
  h_clean_without_fault : bool;
}

let hunt ?(traces = 1000) ?(max_events = 64) ?(seed = 42) fault =
  Obs.Timeline.begin_ tl_hunt;
  let result =
    Hawkset.Fault.with_fault fault (fun () ->
        let found = ref None in
        (try
           for i = 0 to traces - 1 do
             let t = Gen.trace ~max_events ~seed:(seed + i) () in
             if failing t then begin
               found := Some (seed + i, t);
               raise Exit
             end
           done
         with Exit -> ());
        match !found with
        | None -> None
        | Some (s, t) ->
            let minimized = minimize t in
            Some (s, t, minimized, divergences minimized))
  in
  let report =
    match result with
    | None ->
        Obs.Metric.incr obs_faults_missed;
        { h_fault = fault; h_caught_seed = None; h_original_events = 0;
          h_minimized = None; h_divergence = None;
          h_clean_without_fault = false }
    | Some (s, t, minimized, divs) ->
        Obs.Metric.incr obs_faults_caught;
        (* Disarmed ([with_fault] restored the previous state), the
           reproducer must be conformant: the divergence isolates the
           fault, not a latent production bug. *)
        let clean = not (failing minimized) in
        { h_fault = fault; h_caught_seed = Some s;
          h_original_events = Trace.Tracebuf.length t;
          h_minimized = Some minimized;
          h_divergence = (match divs with d :: _ -> Some d | [] -> None);
          h_clean_without_fault = clean }
  in
  Obs.Timeline.end_ tl_hunt;
  report

let save_fixture ~dir ~name trace =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir (name ^ ".trace") in
  Trace.Trace_io.save path trace;
  path
