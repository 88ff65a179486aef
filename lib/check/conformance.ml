type divergence = {
  d_variant : string;
  d_kind : [ `Report | `Crash ];
  d_expected : string;
  d_actual : string;
}

(* check.* observability: counters for the CLI's --stats, and the
   fuzz/minimize/hunt spans, so a fuzzing run shows its stages in the
   manifest and in the Perfetto export. *)
let obs_traces = Obs.Registry.counter "check.traces"
let obs_events = Obs.Registry.counter "check.events"
let obs_comparisons = Obs.Registry.counter "check.comparisons"
let obs_divergences = Obs.Registry.counter "check.divergences"
let obs_minimize_probes = Obs.Registry.counter "check.minimize_probes"
let obs_faults_caught = Obs.Registry.counter "check.faults_caught"
let obs_faults_missed = Obs.Registry.counter "check.faults_missed"
let tl_divergence = Obs.Timeline.name "check.divergence"

(* [n] counts the caller's comparisons. *)
let check_variant n acc ~variant ~expected f =
  incr n;
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

(* The divergences of one trace, and the comparisons that found them. *)
let matrix trace =
  let n = ref 0 in
  let len = Trace.Tracebuf.length trace in
  (* The event-budget dimension: the full trace plus a truncating budget.
     Both sides get the whole trace and apply the same deterministic cut
     themselves, so the pipeline's own prefix path is what is checked. *)
  let budgets =
    (None, "full")
    :: (if len > 3 then [ (Some (2 * len / 3), "prefix") ] else [])
  in
  let divs =
    List.concat_map
      (fun (event_budget, bname) ->
        let expected =
          Hawkset.Report.to_json
            (Hawkset.Reference.pipeline ?event_budget trace)
        in
        (* The assembled pipeline: the collector + analysis path every
           front end takes. *)
        let acc =
          check_variant n [] ~variant:("pipeline budget=" ^ bname) ~expected
            (fun () ->
              let config = { Hawkset.Pipeline.default with event_budget } in
              Hawkset.Report.to_json
                (Hawkset.Pipeline.run ~config trace).Hawkset.Pipeline.races)
        in
        (* Result cache, cold then warm: a complete run's bytes stored
           under (trace fingerprint, config fingerprint) must come back
           verbatim — and still equal the specification's. Budget runs
           are truncated results, which the cache contract excludes. *)
        let acc =
          if event_budget <> None then acc
          else
            let cache = Hawkset.Result_cache.create () in
            let run () =
              fst
                (Hawkset.Result_cache.run_cached ~cache
                   ~config:Hawkset.Pipeline.default
                   (Hawkset.Result_cache.Trace trace))
            in
            check_variant n acc ~variant:"cache cold+warm" ~expected
              (fun () ->
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
  (divs, !n)

let divergences trace = fst (matrix trace)
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
  Obs.Registry.with_span ~arg:(List.length events) "check.minimize"
  @@ fun () ->
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
  Trace.Tracebuf.of_list (ddmin events 2)

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
  Obs.Registry.with_span ~arg:traces "check.fuzz" @@ fun () ->
  let ran = ref 0 and events = ref 0 and compared = ref 0
  and failures = ref [] in
  (try
     for i = 0 to traces - 1 do
       if List.length !failures >= max_failures then raise Exit;
       let t = Gen.trace ~max_events ~seed:(seed + i) () in
       incr ran;
       events := !events + Trace.Tracebuf.length t;
       Obs.Metric.incr obs_traces;
       Obs.Metric.add obs_events (Trace.Tracebuf.length t);
       let divs, n = matrix t in
       compared := !compared + n;
       match divs with
       | [] -> ()
       | d :: _ -> failures := (seed + i, t, d) :: !failures
     done
   with Exit -> ());
  {
    fz_traces = !ran;
    fz_events = !events;
    fz_comparisons = !compared;
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
  Obs.Registry.with_span "check.hunt" @@ fun () ->
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

let save_fixture ~dir ~name trace =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir (name ^ ".trace") in
  Trace.Trace_io.save path trace;
  path
