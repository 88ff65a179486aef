(* Crash-sweep fault injection: run an application workload, cut the
   machine at enumerated crash points, recover each worst-case persistent
   image and compare what survived against what the application
   acknowledged. See the .mli for the model. *)

module S = Machine.Sched

(* Sweep observability. All counts are exact functions of (app, config):
   the machine is deterministic and verification walks acked keys in
   sorted order. *)
let obs_points = Obs.Registry.counter "crashtest.points"
let obs_completed = Obs.Registry.counter "crashtest.points_completed"
let obs_clean = Obs.Registry.counter "crashtest.clean_recoveries"
let obs_damaged = Obs.Registry.counter "crashtest.damaged_recoveries"
let obs_raised = Obs.Registry.counter "crashtest.recovery_failures"
let obs_manifested = Obs.Registry.counter "crashtest.bugs_manifested"

type outcome =
  | Clean
  | Damaged of string list
  | Recovery_raised of string

type crash_spec = [ `No | `After_events of int | `After_fences of int ]

type execution = {
  ex_report : S.report;
  ex_acked : int;
  ex_at_risk_bytes : int;
  ex_verify : budget:int -> outcome;
}

type runner = {
  r_name : string;
  r_bugs : Pmapps.Ground_truth.bug list;
  r_expect_clean : bool;
  r_exec : seed:int -> ops:int -> threads:int -> crash:crash_spec -> execution;
}

let heap_size = 16 * 1024 * 1024
let value_of key = Int64.of_int ((key * 1000) + 7)

let split_crash = function
  | `No -> (None, None)
  | `After_events n -> (Some n, None)
  | `After_fences n -> (None, Some n)

(* ---- generic KV runner ----

   Workload: [threads] workers insert disjoint ascending keys
   (key = 1 + i*threads + ti, so every round interleaves all workers in
   the key space) and acknowledge each insert the moment it returns —
   the point at which a store would answer the client. Every 4th
   operation also issues a lock-free [get] of a peer thread's key, the
   cross-thread read the lockset analysis pairs against the stores.

   Verification recovers the crash image and re-[get]s every
   acknowledged key, in sorted order (the ack table is a hash table; the
   sort keeps damage lists deterministic). [consistency] lets an app add
   structural checks (TurboHash's bitmap-vs-entry scan). [key_map]
   renames the workload's logical keys (injectively) so an app can be
   driven into the regime its bug needs — see [turbo_key] below. *)
let kv_exec (type a) (module App : Pmapps.App_intf.KV with type t = a)
    ~(anchor : a -> int) ~(reopen : S.ctx -> int -> a)
    ?(consistency : (a -> S.ctx -> string list) option)
    ?(key_map : int -> int = Fun.id) () ~seed ~ops ~threads ~crash =
  let crash_after_events, crash_after_fences = split_crash crash in
  let heap = Pmem.Heap.create ~size:heap_size () in
  let anchor_addr = ref 0 in
  let acked : (int, int64) Hashtbl.t = Hashtbl.create 256 in
  let per_thread = max 1 (ops / max 1 threads) in
  let report =
    S.run ~seed ?crash_after_events ?crash_after_fences
      ~sync_config:App.sync_config ~heap (fun ctx ->
        let t = App.create ctx in
        anchor_addr := anchor t;
        let worker ti =
          S.spawn ctx (fun ctx ->
              for i = 0 to per_thread - 1 do
                let key = key_map (1 + (i * threads) + ti) in
                let value = value_of key in
                App.insert t ctx ~key ~value;
                Hashtbl.replace acked key value;
                if i land 3 = 3 then
                  ignore
                    (App.get t ctx
                       ~key:(key_map (1 + (i * threads) + ((ti + 1) mod threads))))
              done)
        in
        let workers = List.init threads worker in
        List.iter (S.join ctx) workers)
  in
  let at_risk = Pmem.Heap.unpersisted_bytes heap in
  let image = Pmem.Heap.crash_image heap in
  let anchor_addr = !anchor_addr in
  let acked_sorted =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) acked [])
  in
  let verify ~budget =
    let post = Pmem.Heap.of_image image in
    let damage = ref [] in
    match
      S.run ~crash_after_events:budget ~sync_config:App.sync_config ~heap:post
        (fun ctx ->
          let t = reopen ctx anchor_addr in
          (match consistency with
          | Some f -> damage := List.rev (f t ctx)
          | None -> ());
          List.iter
            (fun (k, v) ->
              match App.get t ctx ~key:k with
              | Some v' when Int64.equal v v' -> ()
              | Some v' ->
                  damage :=
                    Printf.sprintf
                      "key %d: acknowledged value %Ld survived as %Ld" k v v'
                    :: !damage
              | None ->
                  damage :=
                    Printf.sprintf "key %d: acknowledged insert lost" k
                    :: !damage)
            acked_sorted)
    with
    | r ->
        if r.S.outcome = S.Crashed then
          Recovery_raised
            (Printf.sprintf "recovery exceeded its %d-event budget" budget)
        else if !damage = [] then Clean
        else Damaged (List.rev !damage)
    | exception e -> Recovery_raised (Printexc.to_string e)
  in
  {
    ex_report = report;
    ex_acked = List.length acked_sorted;
    ex_at_risk_bytes = at_risk;
    ex_verify = verify;
  }

(* TurboHash's 8192 buckets see ~0.05 load under a few hundred sequential
   keys, so no bucket ever fills past its first cache line and bug #3 (the
   unflushed slots 3-6) cannot bite — the paper's "manifested only in the
   largest workload". Instead of running a huge workload per crash point,
   funnel the keys into the first 128 home buckets: the mean bucket load
   rises past 3 and the second line gets used. The table is indexed by
   logical key and strictly increasing, so the renaming is injective. *)
let turbo_keys =
  lazy
    (let want = 4096 and target = 128 in
     let keys = Array.make want 0 in
     let n = ref 0 and k = ref 0 in
     while !n < want do
       incr k;
       if Pmapps.Turbo_hash.bucket_of_key !k < target then begin
         keys.(!n) <- !k;
         incr n
       end
     done;
     keys)

let turbo_key lk =
  let keys = Lazy.force turbo_keys in
  if lk >= 0 && lk < Array.length keys then keys.(lk) else lk

(* Memcached-pmem exposes set/get rather than the KV signature; adapt the
   subset the sweep uses. *)
module Mc_kv = struct
  let name = Pmapps.Memcached.name

  type t = Pmapps.Memcached.t

  let create = Pmapps.Memcached.create

  let insert t ctx ~key ~value = Pmapps.Memcached.set t ctx ~key ~value
  let update = insert
  let get = Pmapps.Memcached.get
  let delete = Pmapps.Memcached.delete
  let bugs = Pmapps.Memcached.bugs
  let benign = Pmapps.Memcached.benign
  let sync_config = Pmapps.Memcached.sync_config
end

(* ---- MadFS runner ----

   Block writes instead of KV pairs; a write is acknowledged only after
   [fsync] returns — MadFS's contract makes no promise before that.
   Verification replays the log and re-reads every acknowledged block. *)
let madfs_exec ~seed ~ops ~threads ~crash =
  let crash_after_events, crash_after_fences = split_crash crash in
  let heap = Pmem.Heap.create ~size:heap_size () in
  let blocks = 64 in
  let base = ref 0 in
  let acked : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let per_thread = max 1 (ops / max 1 threads) in
  let block_of i ti = (1 + (i * threads) + ti) mod blocks in
  let pattern b i = Bytes.make 8 (Char.chr (((b * 31) + i) land 0xff)) in
  let report =
    S.run ~seed ?crash_after_events ?crash_after_fences ~heap (fun ctx ->
        let f = Pmapps.Madfs.create ctx ~blocks in
        base := Pmapps.Madfs.base_addr f;
        let worker ti =
          S.spawn ctx (fun ctx ->
              for i = 0 to per_thread - 1 do
                let b = block_of i ti in
                Pmapps.Madfs.write f ctx
                  ~offset:(b * Pmapps.Madfs.block_size)
                  ~data:(pattern b i);
                Pmapps.Madfs.fsync f ctx;
                Hashtbl.replace acked b ((b * 31) + i)
              done)
        in
        let workers = List.init threads worker in
        List.iter (S.join ctx) workers)
  in
  let at_risk = Pmem.Heap.unpersisted_bytes heap in
  let image = Pmem.Heap.crash_image heap in
  let base = !base in
  let acked_sorted =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) acked [])
  in
  let verify ~budget =
    let post = Pmem.Heap.of_image image in
    let damage = ref [] in
    match
      S.run ~crash_after_events:budget ~heap:post (fun ctx ->
          let f = Pmapps.Madfs.recover ctx ~base ~blocks in
          List.iter
            (fun (b, tag) ->
              let data =
                Pmapps.Madfs.read f ctx ~offset:(b * Pmapps.Madfs.block_size)
              in
              let expect = Char.chr (tag land 0xff) in
              if Bytes.length data < 8 || Bytes.get data 0 <> expect then
                damage :=
                  Printf.sprintf "block %d: fsync'd write lost" b :: !damage)
            acked_sorted)
    with
    | r ->
        if r.S.outcome = S.Crashed then
          Recovery_raised
            (Printf.sprintf "recovery exceeded its %d-event budget" budget)
        else if !damage = [] then Clean
        else Damaged (List.rev !damage)
    | exception e -> Recovery_raised (Printexc.to_string e)
  in
  {
    ex_report = report;
    ex_acked = List.length acked_sorted;
    ex_at_risk_bytes = at_risk;
    ex_verify = verify;
  }

(* Acked writes can survive a crash only through what the app persisted:
   the sweep needs a recovery entry point, which every app except Apex
   has. Apex is therefore analysed (run/analyze) but not swept. *)
let runners =
  [
    {
      r_name = "fast-fair";
      r_bugs = Pmapps.Fast_fair.bugs;
      r_expect_clean = false;
      r_exec =
        (fun ~seed ~ops ~threads ~crash ->
          kv_exec
            (module Pmapps.Fast_fair)
            ~anchor:Pmapps.Fast_fair.meta_addr
            ~reopen:(fun ctx a -> Pmapps.Fast_fair.recover ctx ~meta_addr:a)
            () ~seed ~ops ~threads ~crash);
    };
    {
      r_name = "turbo-hash";
      r_bugs = Pmapps.Turbo_hash.bugs;
      r_expect_clean = false;
      r_exec =
        (fun ~seed ~ops ~threads ~crash ->
          kv_exec
            (module Pmapps.Turbo_hash)
            ~anchor:Pmapps.Turbo_hash.table_addr
            ~reopen:(fun ctx a -> Pmapps.Turbo_hash.recover ctx ~table_addr:a)
            ~consistency:Pmapps.Turbo_hash.check_consistency
            ~key_map:turbo_key () ~seed ~ops ~threads ~crash);
    };
    {
      r_name = "p-clht";
      r_bugs = Pmapps.P_clht.bugs;
      r_expect_clean = false;
      r_exec =
        (fun ~seed ~ops ~threads ~crash ->
          kv_exec
            (module Pmapps.P_clht)
            ~anchor:Pmapps.P_clht.header_addr
            ~reopen:(fun ctx a -> Pmapps.P_clht.recover ctx ~header_addr:a)
            () ~seed ~ops ~threads ~crash);
    };
    {
      r_name = "p-masstree";
      r_bugs = Pmapps.P_masstree.bugs;
      r_expect_clean = false;
      r_exec =
        (fun ~seed ~ops ~threads ~crash ->
          kv_exec
            (module Pmapps.P_masstree)
            ~anchor:Pmapps.P_masstree.meta_addr
            ~reopen:(fun ctx a -> Pmapps.P_masstree.recover ctx ~meta_addr:a)
            () ~seed ~ops ~threads ~crash);
    };
    {
      r_name = "p-art";
      r_bugs = Pmapps.P_art.bugs;
      r_expect_clean = false;
      r_exec =
        (fun ~seed ~ops ~threads ~crash ->
          kv_exec
            (module Pmapps.P_art)
            ~anchor:Pmapps.P_art.meta_addr
            ~reopen:(fun ctx a -> Pmapps.P_art.recover_at ctx ~meta_addr:a)
            () ~seed ~ops ~threads ~crash);
    };
    {
      r_name = "wipe";
      r_bugs = Pmapps.Wipe.bugs;
      r_expect_clean = false;
      r_exec =
        (fun ~seed ~ops ~threads ~crash ->
          kv_exec
            (module Pmapps.Wipe)
            ~anchor:Pmapps.Wipe.root_addr
            ~reopen:(fun ctx a -> Pmapps.Wipe.recover ctx ~root_addr:a)
            () ~seed ~ops ~threads ~crash);
    };
    {
      r_name = "memcached-pmem";
      r_bugs = Pmapps.Memcached.bugs;
      r_expect_clean = false;
      r_exec =
        (fun ~seed ~ops ~threads ~crash ->
          kv_exec
            (module Mc_kv)
            ~anchor:Pmapps.Memcached.base_addr
            ~reopen:(fun ctx a -> Pmapps.Memcached.recover ctx ~base:a)
            () ~seed ~ops ~threads ~crash);
    };
    { r_name = "madfs"; r_bugs = []; r_expect_clean = true;
      r_exec = madfs_exec };
    {
      r_name = "pmlog";
      r_bugs = Pmapps.Pmlog.bugs;
      r_expect_clean = true;
      r_exec =
        (fun ~seed ~ops ~threads ~crash ->
          kv_exec
            (module Pmapps.Pmlog)
            ~anchor:Pmapps.Pmlog.base_addr
            ~reopen:(fun ctx a -> Pmapps.Pmlog.recover ctx ~base:a)
            () ~seed ~ops ~threads ~crash);
    };
  ]

let canonical name =
  String.lowercase_ascii (String.map (fun c -> if c = '_' then '-' else c) name)

let runner_for name =
  let name = canonical name in
  List.find_opt (fun r -> r.r_name = name) runners

(* ---- the sweep ---- *)

type config = {
  c_seed : int;
  c_ops : int;
  c_threads : int;
  c_stride : int;
  c_max_points : int;
  c_fence_points : bool;
  c_attribute : bool;
  c_verify_budget : int;
  c_dump_dir : string option;
}

let default_config =
  {
    c_seed = 42;
    c_ops = 400;
    c_threads = 4;
    c_stride = 500;
    c_max_points = 40;
    c_fence_points = true;
    c_attribute = true;
    c_verify_budget = 200_000;
    c_dump_dir = None;
  }

type point = {
  pt_crash : crash_spec;
  pt_events : int;
  pt_acked : int;
  pt_at_risk : int;
  pt_outcome : outcome option;
  pt_bugs : int list;
  pt_fixture : string option;
}

type sweep = {
  sw_app : string;
  sw_config : config;
  sw_full_events : int;
  sw_points : point list;
  sw_completed : int;
  sw_clean : int;
  sw_damaged : int;
  sw_raised : int;
  sw_manifested : int list;
}

let pp_crash ppf = function
  | `No -> Format.fprintf ppf "none"
  | `After_events n -> Format.fprintf ppf "event %d" n
  | `After_fences n -> Format.fprintf ppf "fence %d" n

(* Evenly subsample [l] down to [n] elements, keeping endpoints spread. *)
let subsample n l =
  let len = List.length l in
  if len <= n || n <= 0 then l
  else
    List.filteri (fun i _ -> i * n / len < ((i + 1) * n / len)) l

(* Ground-truth ids reported by the pipeline on the crashed prefix: the
   analysis predicts from the events leading up to this crash point, so a
   match means the damage seen by recovery is the bug the detector
   reports — manifested, not just flagged.

   Attribution matches on (store location, load location) pairs — exactly
   {!Hawkset.Report.canonical} — so identical crash prefixes (two points
   that cut the trace at the same persistent state, e.g. a fence point
   and a stride point landing on the same boundary) are deduplicated
   through the sweep's result cache instead of re-running the pipeline. *)
let ids_of_canonical bugs canonical =
  List.filter_map
    (fun (b : Pmapps.Ground_truth.bug) ->
      if
        List.exists
          (fun (s, l) ->
            List.mem s b.Pmapps.Ground_truth.gt_store_locs
            && List.mem l b.Pmapps.Ground_truth.gt_load_locs)
          canonical
      then Some b.Pmapps.Ground_truth.gt_id
      else None)
    bugs

let attribute ?cache runner (report : S.report) =
  match runner.r_bugs with
  | [] -> []
  | bugs ->
      let e, _ =
        Hawkset.Result_cache.run_cached ?cache ~config:Hawkset.Pipeline.default
          (Hawkset.Result_cache.Trace report.S.trace)
      in
      ids_of_canonical bugs e.Hawkset.Result_cache.e_canonical

(* Timeline events: the sweep as one duration bracket (arg = point count)
   with an instant per crash point (arg = point index). Point specs are a
   pure function of the pilot run, so the sequence is seed-deterministic. *)
let tl_sweep = Obs.Timeline.name "crash_sweep"
let tl_point = Obs.Timeline.name "crash_sweep.point"

let run_sweep ?(config = default_config) runner =
  Obs.Registry.with_span "crash_sweep" @@ fun () ->
  let exec crash =
    runner.r_exec ~seed:config.c_seed ~ops:config.c_ops
      ~threads:config.c_threads ~crash
  in
  (* Pilot run: the uncut execution fixes the sweep's coordinate system —
     total events and the fence count. *)
  let pilot = exec `No in
  let full_events = pilot.ex_report.S.event_count in
  let stats = Trace.Tracebuf.stats pilot.ex_report.S.trace in
  let fence_specs =
    if config.c_fence_points then
      List.init stats.Trace.Tracebuf.fences (fun i -> `After_fences (i + 1))
    else []
  in
  let stride = max 1 config.c_stride in
  let stride_specs =
    List.init (max 0 ((full_events - 1) / stride)) (fun i ->
        `After_events ((i + 1) * stride))
  in
  let specs =
    subsample config.c_max_points fence_specs
    @ subsample config.c_max_points stride_specs
  in
  let manifested = Hashtbl.create 8 in
  (* Per-sweep result cache for attribution: fence points and stride
     points frequently cut the trace at the same prefix, and the sweep is
     sequential, so identical-fingerprint prefixes analyse once. *)
  let attr_cache = Hawkset.Result_cache.create () in
  (* Damaged-point traces become golden fixtures: the crashed prefix,
     saved with the checksum trailer so replay (`hawkset analyze`, the
     salvage tests) can verify integrity. Capped per sweep — the first
     few damaged points carry all the evidence. *)
  let dumped = ref 0 in
  let max_dumps = 2 in
  let dump_point spec (report : S.report) =
    match config.c_dump_dir with
    | Some dir when !dumped < max_dumps ->
        incr dumped;
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let tag =
          match spec with
          | `After_events n -> Printf.sprintf "event%d" n
          | `After_fences n -> Printf.sprintf "fence%d" n
          | `No -> "full"
        in
        let path =
          Filename.concat dir
            (Printf.sprintf "crash-%s-%s.trace" runner.r_name tag)
        in
        Trace.Trace_io.save path report.S.trace;
        Some path
    | Some _ | None -> None
  in
  Obs.Timeline.begin_ tl_sweep ~arg:(List.length specs);
  let points =
    List.mapi
      (fun point_idx spec ->
        Obs.Timeline.instant tl_point ~arg:point_idx;
        Obs.Metric.incr obs_points;
        let ex = exec spec in
        if ex.ex_report.S.outcome = S.Completed then begin
          (* The run finished before the crash point (e.g. a fence count
             reached only transiently): nothing to verify. *)
          Obs.Metric.incr obs_completed;
          {
            pt_crash = spec;
            pt_events = ex.ex_report.S.event_count;
            pt_acked = ex.ex_acked;
            pt_at_risk = ex.ex_at_risk_bytes;
            pt_outcome = None;
            pt_bugs = [];
            pt_fixture = None;
          }
        end
        else begin
          let outcome = ex.ex_verify ~budget:config.c_verify_budget in
          let fixture =
            match outcome with
            | Damaged _ | Recovery_raised _ -> dump_point spec ex.ex_report
            | Clean -> None
          in
          let bugs =
            match outcome with
            | Clean ->
                Obs.Metric.incr obs_clean;
                []
            | Damaged _ | Recovery_raised _ ->
                (match outcome with
                | Damaged _ -> Obs.Metric.incr obs_damaged
                | _ -> Obs.Metric.incr obs_raised);
                if config.c_attribute then
                  attribute ~cache:attr_cache runner ex.ex_report
                else []
          in
          List.iter
            (fun id ->
              if not (Hashtbl.mem manifested id) then begin
                Hashtbl.add manifested id ();
                Obs.Metric.incr obs_manifested
              end)
            bugs;
          {
            pt_crash = spec;
            pt_events = ex.ex_report.S.event_count;
            pt_acked = ex.ex_acked;
            pt_at_risk = ex.ex_at_risk_bytes;
            pt_outcome = Some outcome;
            pt_bugs = bugs;
            pt_fixture = fixture;
          }
        end)
      specs
  in
  Obs.Timeline.end_ tl_sweep ~arg:(List.length specs);
  let count f = List.length (List.filter f points) in
  let sweep =
    {
      sw_app = runner.r_name;
      sw_config = config;
      sw_full_events = full_events;
      sw_points = points;
      sw_completed = count (fun p -> p.pt_outcome = None);
      sw_clean = count (fun p -> p.pt_outcome = Some Clean);
      sw_damaged =
        count (fun p ->
            match p.pt_outcome with Some (Damaged _) -> true | _ -> false);
      sw_raised =
        count (fun p ->
            match p.pt_outcome with
            | Some (Recovery_raised _) -> true
            | _ -> false);
      sw_manifested =
        List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) manifested []);
    }
  in
  Obs.Logger.info ~section:"crashtest" (fun () ->
      Printf.sprintf
        "%s: %d points (%d clean, %d damaged, %d raised, %d completed), \
         manifested [%s]"
        sweep.sw_app (List.length points) sweep.sw_clean sweep.sw_damaged
        sweep.sw_raised sweep.sw_completed
        (String.concat ";" (List.map string_of_int sweep.sw_manifested)));
  sweep
