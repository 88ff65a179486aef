(* The paper's evaluation, its micro-benchmarks and two timing gates.

     dune exec bench/main.exe              -- every artifact, scaled down
     dune exec bench/main.exe -- table2    -- one artifact (table1|table2|
                                              table3|table4|figure6|
                                              ablation|micro)
     dune exec bench/main.exe -- full      -- paper-scale workloads (slow)
     dune exec bench/main.exe -- perf-smoke   -- timeline overhead gate
     dune exec bench/main.exe -- batch-par    -- job_workers=4 gate

   Every table and figure of the paper's evaluation has (i) a harness
   that prints the same rows/series (lib/harness) and (ii) a Bechamel
   micro-benchmark of its computational kernel below. The tools
   (explore, crash-sweep, check, batch) live in the hawkset CLI. *)

module S = Machine.Sched

(* ---- Bechamel micro-benchmarks ---- *)

let fast_fair_trace ops seed =
  (Pmapps.Driver.run_kv_ycsb (module Pmapps.Fast_fair) ~seed ~ops ()).S.trace

let seed_workload =
  lazy (Workload.Seeds.corpus ~count:1 ~ops_per_seed:400 ()).(0)

let micro () =
  let open Bechamel in
  (* Pre-generate the inputs outside the measured closures. *)
  let trace_1k = fast_fair_trace 1_000 42 in
  let trace_4k = fast_fair_trace 4_000 42 in
  let seed_ops = Lazy.force seed_workload in
  let per_thread = Workload.Seeds.split ~threads:8 seed_ops in
  let tests =
    [
      (* Table 2 kernel: the full pipeline over an application trace. *)
      Test.make ~name:"table2/pipeline-fast-fair-1k"
        (Staged.stage (fun () -> Hawkset.Pipeline.races trace_1k));
      (* Table 3 kernels: what each tool pays per seed workload. *)
      Test.make ~name:"table3/hawkset-per-seed"
        (Staged.stage (fun () ->
             let report =
               Pmapps.Driver.run_kv
                 (module Pmapps.Fast_fair)
                 ~seed:7 ~load:[] ~per_thread ()
             in
             Hawkset.Pipeline.races report.Machine.Sched.trace));
      Test.make ~name:"table3/pmrace-per-execution"
        (Staged.stage (fun () ->
             Pmapps.Driver.run_kv
               (module Pmapps.Fast_fair)
               ~seed:7
               ~policy:
                 (Machine.Sched.Delay_injection
                    { probability = 0.05; duration = 40 })
               ~observe:true ~load:[] ~per_thread ()));
      (* Table 4 kernels: stage 2 on and off. *)
      Test.make ~name:"table4/analysis-with-irh"
        (Staged.stage (fun () -> Hawkset.Pipeline.races trace_1k));
      Test.make ~name:"table4/analysis-without-irh"
        (Staged.stage (fun () ->
             Hawkset.Pipeline.races ~config:Hawkset.Pipeline.no_irh trace_1k));
      (* Figure 6 kernel: analysis cost vs trace size (sublinearity). *)
      Test.make ~name:"figure6/analysis-4k"
        (Staged.stage (fun () -> Hawkset.Pipeline.races trace_4k));
      (* Ablation kernels. *)
      Test.make ~name:"ablation/traditional-lockset"
        (Staged.stage (fun () -> Baselines.Eraser.analyse trace_1k));
      Test.make ~name:"ablation/no-vector-clocks"
        (Staged.stage (fun () ->
             Hawkset.Pipeline.races
               ~config:
                 { Hawkset.Pipeline.default with vector_clocks = false }
               trace_1k));
    ]
  in
  let grouped = Test.make_grouped ~name:"hawkset" ~fmt:"%s %s" tests in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (v :: _) -> v
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  print_string (Harness.Tables.section "Bechamel micro-benchmarks");
  print_string
    (Harness.Tables.render
       ~headers:[ "Benchmark"; "Time per run" ]
       ~rows:
         (List.map
            (fun (name, ns) ->
              let pretty =
                if Float.is_nan ns then "n/a"
                else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
                else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
                else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
                else Printf.sprintf "%.0f ns" ns
              in
              [ name; pretty ])
            rows))

(* ---- experiment drivers ---- *)

let table1 ~full =
  ignore full;
  print_string (Harness.Table1.to_string ())

let table2 ~full =
  let sizes = if full then [ 1_000; 10_000; 100_000 ] else [ 1_000; 6_000 ] in
  print_string (Harness.Table2.to_string (Harness.Table2.run ~sizes ()))

let table3 ~full =
  let seeds = if full then 240 else 24 in
  let pmrace_executions = if full then 40 else 12 in
  print_string
    (Harness.Table3.to_string (Harness.Table3.run ~seeds ~pmrace_executions ()))

let table4 ~full =
  let ops = if full then 100_000 else 2_000 in
  print_string (Harness.Table4.to_string (Harness.Table4.run ~ops ()))

let figure6 ~full =
  let sizes =
    if full then [ 1_000; 10_000; 100_000 ] else [ 250; 1_000; 4_000 ]
  in
  print_string (Harness.Figure6.to_string (Harness.Figure6.run ~sizes ()))

let ablation ~full =
  let ops = if full then 10_000 else 1_500 in
  print_string (Harness.Ablation.to_string (Harness.Ablation.run ~ops ()))

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

(* ---- CI perf smoke (the `perf-smoke` target) ----
   The timeline overhead gate: the instrumentation must add <= 2% to the
   4000-op pipeline. We compare recording *enabled* against disabled —
   a strictly stronger bound than the no-`--trace-out` claim, since the
   disabled path (one atomic load per stage-granularity site) is a
   subset of the enabled one. Each round times an off run and an on run
   back to back and keeps their *difference*: adjacent runs see the
   same load phase of a shared runner, so drift cancels pairwise where
   a best-of comparison of two separate batches does not. The median
   difference then gates against 2% of the median off time, with a
   10ms floor for timer noise on runs this short. Exits non-zero on
   violation. *)

let perf_smoke ~full =
  let ops = if full then 100_000 else 4_000 in
  let trace = fast_fair_trace ops 42 in
  let timed_round enabled =
    Obs.Timeline.reset ();
    Obs.Timeline.set_enabled enabled;
    let r = Hawkset.Pipeline.run trace in
    r.Hawkset.Pipeline.analysis_seconds
  in
  let rounds = if full then 3 else 5 in
  let offs = Array.make rounds 0. in
  let deltas = Array.make rounds 0. in
  for i = 0 to rounds - 1 do
    let off = timed_round false in
    let on = timed_round true in
    offs.(i) <- off;
    deltas.(i) <- on -. off
  done;
  Obs.Timeline.set_enabled false;
  Obs.Timeline.reset ();
  let med_off = median offs and med_delta = median deltas in
  print_string (Harness.Tables.section "Perf smoke (timeline overhead)");
  Printf.printf
    "fast-fair/%d: pipeline timeline-off %.4fs, median on-off delta %+.4fs \
     (bound 2%% + 10ms)\n"
    ops med_off med_delta;
  if med_delta > (med_off *. 0.02) +. 0.01 then begin
    Printf.eprintf
      "perf-smoke FAIL: timeline recording adds %.4fs > 2%% of %.4fs + 10ms\n"
      med_delta med_off;
    exit 1
  end

(* ---- job-level parallelism (the `batch-par` target) ----
   The wall-clock contract of job-level width, gated: a batch of four
   per-app chains at job_workers=4 must produce a merged report
   byte-identical to the sequential walk in <= 0.6x its wall-clock
   (median of three paired reps). *)

let batch_par ~full =
  let ops = if full then 2_000 else 600 in
  (* Four apps, so job_workers=4 gets four per-app chains to spread. *)
  let jobs =
    match
      Supervise.jobs_of
        ~apps:[ "fast-fair"; "p-clht"; "turbo-hash"; "wipe" ]
        ~seeds:[ 42; 43 ] ~policies:[ "round-robin" ] ~ops
    with
    | Ok js -> js
    | Error msg -> failwith msg
  in
  let base = { Supervise.default_config with Supervise.backoff_ms = 0 } in
  let time config =
    let t0 = Unix.gettimeofday () in
    let b = Supervise.run ~config jobs in
    (b, Unix.gettimeofday () -. t0)
  in
  let samples =
    Array.init 3 (fun _ ->
        let b1, t1 = time base in
        let b4, t4 = time { base with Supervise.job_workers = 4 } in
        if Supervise.merged_json b4 <> Supervise.merged_json b1 then
          failwith
            "batch-par: job_workers=4 merged report differs from \
             job_workers=1";
        (t1, t4))
  in
  let seq_s = median (Array.map fst samples) in
  let par_s = median (Array.map snd samples) in
  let ratio = median (Array.map (fun (t1, t4) -> t4 /. t1) samples) in
  print_string (Harness.Tables.section "Batch job-workers (4 vs 1)");
  (* The speedup gate needs hardware that can actually run four chains
     at once; on fewer cores (dev containers are often 1-2) the byte
     identity asserted above is the whole contract and the wall-clock
     ratio is reported without gating. *)
  let cores = Domain.recommended_domain_count () in
  let gated = cores >= 4 in
  Printf.printf
    "%d jobs: job_workers=1 %.3fs, job_workers=4 %.3fs (median ratio %.2fx, \
     bound 0.60x%s); merged reports byte-identical\n"
    (List.length jobs) seq_s par_s ratio
    (if gated then ""
     else Printf.sprintf " — not gated, %d core(s)" cores);
  if gated && ratio > 0.6 then begin
    Printf.eprintf
      "batch-par FAIL: job_workers=4 wall-clock %.3fs > 0.6x sequential \
       %.3fs\n"
      par_s seq_s;
    exit 1
  end

let targets =
  [ ("table1", table1); ("table2", table2); ("table3", table3);
    ("table4", table4); ("figure6", figure6); ("ablation", ablation);
    ("perf-smoke", perf_smoke); ("batch-par", batch_par);
    ("micro", fun ~full:_ -> micro ()) ]

(* The paper's artifacts and [micro] run when no target is named;
   `perf-smoke` and `batch-par` are opt-in CI gates. *)
let default_targets =
  [ "table1"; "table2"; "table3"; "table4"; "figure6"; "ablation"; "micro" ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "full" args || List.mem "--full" args in
  let named = List.filter (fun a -> a <> "full" && a <> "--full") args in
  match List.filter (fun a -> not (List.mem_assoc a targets)) named with
  | _ :: _ as unknown ->
      Printf.eprintf "bench: unknown target %s (targets: %s)\n"
        (String.concat ", " unknown)
        (String.concat ", " (List.map fst targets));
      exit 2
  | [] ->
      let wanted = if named = [] then default_targets else named in
      List.iter
        (fun (name, f) -> if List.mem name wanted then f ~full)
        targets
