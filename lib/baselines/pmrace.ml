type report = {
  executions : int;
  observations : Machine.Sched.observation list;
  seconds : float;
}

(* PMRace's cost is executions, its yield is direct observations — the
   Table 3 asymmetry, countable per run. *)
let obs_executions = Obs.Registry.counter "pmrace.executions"
let obs_hits = Obs.Registry.counter "pmrace.observation_hits"

(* One execution: count it, and count each (store, load) location pair
   not yet in [seen]. Returns the report and its new observations. *)
let execute seen run =
  Obs.Metric.incr obs_executions;
  let r = run () in
  let fresh = ref [] in
  List.iter
    (fun (o : Machine.Sched.observation) ->
      let key =
        ( Trace.Site.location o.Machine.Sched.obs_store_site,
          Trace.Site.location o.Machine.Sched.obs_load_site )
      in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        Obs.Metric.incr obs_hits;
        fresh := o :: !fresh
      end)
    r.Machine.Sched.observations;
  (r, List.rev !fresh)

let observe_once run = fst (execute (Hashtbl.create 8) run)

let fuzz ~run ~seed_workload ?(threads = 8) ?(executions = 20)
    ?(mutation_seed = 0) ?(delay_probability = 0.05) ?(delay_duration = 40) ()
    =
  let t0 = Unix.gettimeofday () in
  let prng = Machine.Prng.create mutation_seed in
  let seen = Hashtbl.create 32 in
  let observations = ref [] in
  let workload = ref seed_workload in
  for exec = 0 to executions - 1 do
    let per_thread = Workload.Seeds.split ~threads !workload in
    let policy =
      Machine.Sched.Delay_injection
        { probability = delay_probability; duration = delay_duration }
    in
    let _, fresh =
      execute seen (fun () ->
          run ~per_thread ~seed:(mutation_seed + exec) ~policy ~observe:true)
    in
    observations := List.rev_append fresh !observations;
    (* Mutate for the next execution (the first one runs the seed). *)
    workload := Workload.Seeds.mutate prng !workload
  done;
  {
    executions;
    observations = List.rev !observations;
    seconds = Unix.gettimeofday () -. t0;
  }

let observed report ~store_locs ~load_locs =
  List.exists
    (fun (o : Machine.Sched.observation) ->
      List.mem (Trace.Site.location o.Machine.Sched.obs_store_site) store_locs
      && List.mem (Trace.Site.location o.Machine.Sched.obs_load_site) load_locs)
    report.observations
