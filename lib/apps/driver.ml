module S = Machine.Sched

let apply (type a) (module App : App_intf.KV with type t = a) (t : a) ctx op =
  match op with
  | Workload.Op.Insert (key, value) -> App.insert t ctx ~key ~value
  | Workload.Op.Update (key, value) -> App.update t ctx ~key ~value
  | Workload.Op.Get key -> ignore (App.get t ctx ~key)
  | Workload.Op.Delete key -> App.delete t ctx ~key

let run_kv (module App : App_intf.KV) ?(seed = 0) ?sched_seed ?policy ?observe
    ?crash_after_events ~load ~per_thread () =
  let heap = Pmem.Heap.create ~size:(64 * 1024 * 1024) () in
  let nthreads = max 1 (Array.length per_thread) in
  (* The scheduler seed defaults to the workload seed; passing it
     separately explores different interleavings of the same operations
     (the stability-oracle axis in {!Explore}). *)
  let sched_seed = Option.value ~default:seed sched_seed in
  S.run ~seed:sched_seed ?policy ~sync_config:App.sync_config
    ?crash_after_events
    ?observe ~heap (fun ctx ->
      let t = App.create ctx in
      (* The load phase runs on the same worker threads as the main phase
         (the paper's experiments are fully concurrent): structural
         operations — splits, rehashes, expansions — happen under
         contention from the start. *)
      let load_slices = Array.make nthreads [] in
      List.iteri
        (fun i op ->
          let k = i mod nthreads in
          load_slices.(k) <- op :: load_slices.(k))
        load;
      let loaders =
        Array.to_list
          (Array.map
             (fun ops ->
               S.spawn ctx (fun ctx' ->
                   List.iter (apply (module App) t ctx') (List.rev ops)))
             load_slices)
      in
      List.iter (S.join ctx) loaders;
      let workers =
        Array.to_list
          (Array.map
             (fun ops ->
               S.spawn ctx (fun ctx' ->
                   List.iter (apply (module App) t ctx') ops))
             per_thread)
      in
      List.iter (S.join ctx) workers)

let run_kv_ycsb (module App : App_intf.KV) ?(seed = 0) ?sched_seed
    ?(threads = 8) ?policy ?observe ~ops () =
  let spec = { (Workload.Ycsb.paper_mix ~ops) with threads } in
  let w = Workload.Ycsb.generate ~seed spec in
  run_kv
    (module App)
    ~seed ?sched_seed ?policy ?observe ~load:w.Workload.Ycsb.load
    ~per_thread:w.Workload.Ycsb.per_thread ()
