(* Crash-sweep fault injection: run an application workload, cut the
   machine at enumerated crash points, recover each worst-case persistent
   image and compare what survived against what the application
   acknowledged. See the .mli for the model. *)

module S = Machine.Sched

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

(* What the runner needs of an application: the subset of
   {!Pmapps.App_intf.KV} it drives, so adapters need not stub the rest. *)
module type STORE = sig
  val name : string

  type t

  val create : S.ctx -> t
  val insert : t -> S.ctx -> key:int -> value:int64 -> unit
  val get : t -> S.ctx -> key:int -> int64 option
  val bugs : Pmapps.Ground_truth.bug list
  val sync_config : Machine.Sync_config.t
end

(* ---- the runner ----

   Workload: [threads] workers insert disjoint ascending logical keys
   (lk = 1 + i*threads + ti, so every round interleaves all workers in
   the key space) and acknowledge each insert the moment it returns —
   the point at which a store would answer the client. The value is a
   function of the logical key, i.e. of the op index, so two writes that
   [key_map] sends to one key differ. Every 4th operation also issues a
   lock-free [get] of a peer thread's key, the cross-thread read the
   lockset analysis pairs against the stores.

   Verification recovers the crash image and re-[get]s every
   acknowledged key, in sorted order (the ack table is a hash table; the
   sort keeps damage lists deterministic). A key must read back its last
   acknowledged value, or the value of the one insert still in flight on
   it at the cut: that insert may already have persisted before it
   returned. [consistency] lets an app add structural checks
   (TurboHash's bitmap-vs-entry scan). [key_map] renames the logical
   keys so an app can be driven into the regime its bug needs (see
   [turbo_key] below) or onto a small key space (MadFS's blocks). *)
let kv_exec (type a) (module App : STORE with type t = a)
    ~(anchor : a -> int) ~(reopen : S.ctx -> int -> a)
    ?(consistency : (a -> S.ctx -> string list) option)
    ?(key_map : int -> int = Fun.id) () ~seed ~ops ~threads ~crash =
  let crash_after_events, crash_after_fences =
    match crash with
    | `No -> (None, None)
    | `After_events n -> (Some n, None)
    | `After_fences n -> (None, Some n)
  in
  let heap = Pmem.Heap.create ~size:heap_size () in
  let anchor_addr = ref 0 in
  let acked : (int, int64) Hashtbl.t = Hashtbl.create 256 in
  let in_flight : (int, int64) Hashtbl.t = Hashtbl.create 8 in
  let per_thread = max 1 (ops / max 1 threads) in
  let report =
    S.run ~seed ?crash_after_events ?crash_after_fences
      ~sync_config:App.sync_config ~heap (fun ctx ->
        let t = App.create ctx in
        anchor_addr := anchor t;
        let worker ti =
          S.spawn ctx (fun ctx ->
              for i = 0 to per_thread - 1 do
                let lk = 1 + (i * threads) + ti in
                let key = key_map lk in
                let value = value_of lk in
                Hashtbl.replace in_flight key value;
                App.insert t ctx ~key ~value;
                Hashtbl.remove in_flight key;
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
              | Some v' when Hashtbl.find_opt in_flight k = Some v' -> ()
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

(* Memcached-pmem exposes set/get rather than the KV signature. *)
module Mc_kv = struct
  include Pmapps.Memcached

  let insert t ctx ~key ~value = set t ctx ~key ~value
end

(* MadFS as a store: key = block, insert = [write] + [fsync] (a write is
   acknowledged only once [fsync] returns, MadFS's contract), get = [read]
   (a hole reads as zeros, i.e. absent). *)
let madfs_blocks = 64

module Madfs_kv = struct
  include Pmapps.Madfs

  let create ctx = create ctx ~blocks:madfs_blocks

  let insert t ctx ~key ~value =
    let data = Bytes.create 8 in
    Bytes.set_int64_le data 0 value;
    write t ctx ~offset:(key * block_size) ~data;
    fsync t ctx

  let get t ctx ~key =
    match Bytes.get_int64_le (read t ctx ~offset:(key * block_size)) 0 with
    | 0L -> None
    | v -> Some v
end

let runner (type a) ?(expect_clean = false) ?consistency ?key_map
    (module App : STORE with type t = a) ~anchor ~reopen =
  {
    r_name = App.name;
    r_bugs = App.bugs;
    r_expect_clean = expect_clean;
    r_exec = kv_exec (module App) ~anchor ~reopen ?consistency ?key_map ();
  }

(* Acked writes can survive a crash only through what the app persisted:
   the sweep needs a recovery entry point, which every app except Apex
   has. Apex is therefore analysed (run/analyze) but not swept. *)
let runners =
  let open Pmapps in
  [
    runner (module Fast_fair) ~anchor:Fast_fair.meta_addr
      ~reopen:(fun ctx a -> Fast_fair.recover ctx ~meta_addr:a);
    runner (module Turbo_hash) ~anchor:Turbo_hash.table_addr
      ~reopen:(fun ctx a -> Turbo_hash.recover ctx ~table_addr:a)
      ~consistency:Turbo_hash.check_consistency ~key_map:turbo_key;
    runner (module P_clht) ~anchor:P_clht.header_addr
      ~reopen:(fun ctx a -> P_clht.recover ctx ~header_addr:a);
    runner (module P_masstree) ~anchor:P_masstree.meta_addr
      ~reopen:(fun ctx a -> P_masstree.recover ctx ~meta_addr:a);
    runner (module P_art) ~anchor:P_art.meta_addr
      ~reopen:(fun ctx a -> P_art.recover_at ctx ~meta_addr:a);
    runner (module Wipe) ~anchor:Wipe.root_addr
      ~reopen:(fun ctx a -> Wipe.recover ctx ~root_addr:a);
    runner (module Mc_kv) ~anchor:Memcached.base_addr
      ~reopen:(fun ctx a -> Memcached.recover ctx ~base:a);
    runner ~expect_clean:true (module Madfs_kv) ~anchor:Madfs.base_addr
      ~reopen:(fun ctx base -> Madfs.recover ctx ~base ~blocks:madfs_blocks)
      ~key_map:(fun lk -> lk mod madfs_blocks);
    runner ~expect_clean:true (module Pmlog) ~anchor:Pmlog.base_addr
      ~reopen:(fun ctx a -> Pmlog.recover ctx ~base:a);
  ]

let runner_for name =
  let name = Pmapps.Registry.canonical name in
  List.find_opt (fun r -> r.r_name = name) runners

(* ---- the sweep ---- *)

type config = {
  c_seed : int;
  c_ops : int;
  c_threads : int;
  c_stride : int;
  c_max_points : int;
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

(* The sweep, pilot included, is one [crash_sweep] span, with a timeline
   instant per crash point (arg = point index). Point specs are a pure
   function of the pilot run, so the sequence is seed-deterministic. *)
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
    List.init stats.Trace.Tracebuf.fences (fun i -> `After_fences (i + 1))
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
  let points =
    List.mapi
      (fun point_idx spec ->
        Obs.Timeline.instant tl_point ~arg:point_idx;
        let ex = exec spec in
        (* A run that finished before its crash point (e.g. a fence count
           reached only transiently) has nothing to verify. *)
        let outcome =
          if ex.ex_report.S.outcome = S.Completed then None
          else Some (ex.ex_verify ~budget:config.c_verify_budget)
        in
        let bugs, fixture =
          match outcome with
          | Some (Damaged _ | Recovery_raised _) ->
              let fixture = dump_point spec ex.ex_report in
              (attribute ~cache:attr_cache runner ex.ex_report, fixture)
          | Some Clean | None -> ([], None)
        in
        {
          pt_crash = spec;
          pt_events = ex.ex_report.S.event_count;
          pt_acked = ex.ex_acked;
          pt_at_risk = ex.ex_at_risk_bytes;
          pt_outcome = outcome;
          pt_bugs = bugs;
          pt_fixture = fixture;
        })
      specs
  in
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
        List.sort_uniq compare (List.concat_map (fun p -> p.pt_bugs) points);
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

let counters sweeps =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 sweeps in
  [
    ("crashtest.bugs_manifested", sum (fun s -> List.length s.sw_manifested));
    ("crashtest.clean_recoveries", sum (fun s -> s.sw_clean));
    ("crashtest.damaged_recoveries", sum (fun s -> s.sw_damaged));
    ("crashtest.points", sum (fun s -> List.length s.sw_points));
    ("crashtest.points_completed", sum (fun s -> s.sw_completed));
    ("crashtest.recovery_failures", sum (fun s -> s.sw_raised));
  ]
