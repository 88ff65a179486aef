(* Fingerprint-keyed analysis result cache.

   The paper's headline is efficiency: one execution per workload
   suffices, so the expensive thing — stage 2+3 over a collected trace —
   is a pure function of (trace bytes, analysis feature flags). Sweeps
   exploit that purity: schedule exploration re-runs the pipeline on
   fingerprint-identical traces, and crash sweeps re-analyse identical
   crash prefixes. This cache memoises the canonical outputs under
   [(Trace_io.fingerprint, config_fingerprint)] so a duplicate trace
   costs one hash probe instead of a full analysis.

   Layout: rows live in a {!Trace.Vec} in insertion order (the order
   [save] writes them); the index maps the full "trace_fp:config_fp" key
   to the row. The cache is probed once per job, schedule or crash
   point, never on a hot path. All operations take [lock]: sweeps
   consult the cache from worker domains.

   Only *complete* results belong here — a truncated report is a
   property of the run (its budgets), not of the trace. [run_cached]
   enforces that for every caller. Deadlines and the inert [jobs] field
   are likewise excluded from {!config_fingerprint}: deadlines only
   affect truncated (uncacheable) runs. *)

module J = Trace.Journal

type entry = { e_races_json : string; e_canonical : (string * string) list }

type t = {
  lock : Mutex.t;
  index : (string, int) Hashtbl.t; (* "trace_fp:config_fp" -> row *)
  rows : (string * string * entry) Trace.Vec.t; (* trace_fp, config_fp *)
  mutable hits : int;
  mutable misses : int;
  mutable bytes : int; (* stored races_json bytes *)
}

let obs_hits = Obs.Registry.counter "cache.hits"
let obs_misses = Obs.Registry.counter "cache.misses"
let obs_bytes = Obs.Registry.counter "cache.bytes"
let tl_hit = Obs.Timeline.name "cache.hit"
let tl_miss = Obs.Timeline.name "cache.miss"
let tl_store = Obs.Timeline.name "cache.store"

let create () =
  {
    lock = Mutex.create ();
    index = Hashtbl.create 64;
    rows = Trace.Vec.create ();
    hits = 0;
    misses = 0;
    bytes = 0;
  }

let key_of ~trace_fp ~config_fp = trace_fp ^ ":" ^ config_fp

let config_fingerprint (c : Pipeline.config) =
  J.fnv_hex
    (Printf.sprintf "irh=%b;el=%b;ts=%b;vc=%b;eadr=%b;budget=%s" c.irh
       c.effective_lockset c.timestamps c.vector_clocks c.eadr
       (match c.event_budget with None -> "-" | Some n -> string_of_int n))

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t ~trace_fp ~config_fp =
  let key = key_of ~trace_fp ~config_fp in
  let r = locked t (fun () ->
      match Hashtbl.find_opt t.index key with
      | Some i ->
          t.hits <- t.hits + 1;
          let _, _, e = Trace.Vec.get t.rows i in
          Some e
      | None ->
          t.misses <- t.misses + 1;
          None)
  in
  (match r with
  | Some _ ->
      Obs.Metric.incr obs_hits;
      Obs.Timeline.instant tl_hit
  | None ->
      Obs.Metric.incr obs_misses;
      Obs.Timeline.instant tl_miss);
  r

let add t ~trace_fp ~config_fp entry =
  let key = key_of ~trace_fp ~config_fp in
  let stored = locked t (fun () ->
      if Hashtbl.mem t.index key then false
        (* entries are deterministic: first wins *)
      else begin
        Trace.Vec.push t.rows (trace_fp, config_fp, entry);
        Hashtbl.replace t.index key (Trace.Vec.length t.rows - 1);
        t.bytes <- t.bytes + String.length entry.e_races_json;
        true
      end)
  in
  if stored then begin
    Obs.Metric.add obs_bytes (String.length entry.e_races_json);
    Obs.Timeline.instant tl_store
  end

let run_cached ?cache ~config trace =
  let analyse () =
    let r = Pipeline.run ~config trace in
    ( { e_races_json = Report.to_json r.Pipeline.races;
        e_canonical = Report.canonical r.Pipeline.races },
      List.length r.Pipeline.truncated )
  in
  match cache with
  | None -> analyse ()
  | Some t -> (
      let trace_fp = Trace.Trace_io.fingerprint trace
      and config_fp = config_fingerprint config in
      match find t ~trace_fp ~config_fp with
      | Some e -> (e, 0)
      | None ->
          let e, truncs = analyse () in
          if truncs = 0 then add t ~trace_fp ~config_fp e;
          (e, truncs))

let length t = locked t (fun () -> Trace.Vec.length t.rows)

let stats t =
  locked t (fun () ->
      [
        ("cache.bytes", t.bytes);
        ("cache.entries", Trace.Vec.length t.rows);
        ("cache.hits", t.hits);
        ("cache.misses", t.misses);
      ])

(* --- persistence (Trace.Journal format) ------------------------------- *)

let schema = "hawkset.result_cache/2"

(* Payload framing: the races JSON is length-prefixed (it contains
   newlines and arbitrary bytes); canonical pairs follow as one
   "C store load" line each — locations are "file:line", which contains
   no whitespace. *)
let frame e =
  let b = Buffer.create (String.length e.e_races_json + 64) in
  Buffer.add_string b (string_of_int (String.length e.e_races_json));
  Buffer.add_char b '\n';
  Buffer.add_string b e.e_races_json;
  Buffer.add_char b '\n';
  List.iter
    (fun (s, l) ->
      Buffer.add_string b (Printf.sprintf "C %s %s\n" s l))
    e.e_canonical;
  Buffer.contents b

let unframe payload =
  match String.index_opt payload '\n' with
  | None -> None
  | Some nl -> (
      match int_of_string_opt (String.sub payload 0 nl) with
      | None -> None
      | Some len
        when len < 0 || nl + 1 + len >= String.length payload
             || payload.[nl + 1 + len] <> '\n' ->
          None
      | Some len ->
          let races = String.sub payload (nl + 1) len in
          let rest =
            String.sub payload (nl + 2 + len)
              (String.length payload - nl - 2 - len)
          in
          let canonical = ref [] in
          let ok = ref true in
          List.iter
            (fun line ->
              if line <> "" then
                match String.split_on_char ' ' line with
                | [ "C"; s; l ] -> canonical := (s, l) :: !canonical
                | _ -> ok := false)
            (String.split_on_char '\n' rest);
          if not !ok then None
          else Some { e_races_json = races; e_canonical = List.rev !canonical })

let save t path =
  let w = J.create path in
  Fun.protect
    ~finally:(fun () -> J.close w)
    (fun () ->
      J.add w { J.tag = "cache"; fields = [ schema ]; payload = None };
      locked t (fun () ->
          Trace.Vec.iter
            (fun (trace_fp, config_fp, e) ->
              J.add w
                {
                  J.tag = "entry";
                  fields = [ trace_fp; config_fp ];
                  payload = Some (frame e);
                })
            t.rows))

(* Tolerant, like every loader here: a missing file, another schema, a
   damaged tail or a record whose payload does not unframe costs those
   entries, never the load. *)
let load path =
  let t = create () in
  (if Sys.file_exists path then
     match (J.load path).J.l_records with
     | { J.tag = "cache"; fields = s :: _; _ } :: records when s = schema ->
         List.iter
           (fun (r : J.record) ->
             match (r.J.tag, r.J.fields, r.J.payload) with
             | "entry", [ trace_fp; config_fp ], Some payload -> (
                 match unframe payload with
                 | Some e -> add t ~trace_fp ~config_fp e
                 | None -> ())
             | _ -> ())
           records
     | _ -> ());
  t
