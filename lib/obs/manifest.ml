(* A run manifest: one machine-readable record per run, splitting what is
   reproducible from what is measured. [counters] and [histograms] are
   deterministic for a fixed scheduler seed — byte-identical across runs —
   while [stages] (span timings) and [gauges] (heap sizes, wall clock)
   carry real measurements and live in separate fields so consumers can
   diff the former and plot the latter. *)

let schema = "hawkset.run_manifest/1"

type stage = { stage_name : string; stage_count : int; stage_seconds : float }

type t = {
  labels : (string * string) list; (* app, detector, seed, ... *)
  counters : (string * int) list;
  histograms : (string * (string * int) list) list;
  stages : stage list;
  gauges : (string * float) list;
}

let make ?(labels = []) ?(counters = []) ?(histograms = []) ?(stages = [])
    ?(gauges = []) () =
  { labels; counters; histograms; stages; gauges }

(* A subsystem is a metric name up to its first '.'. It ran when one of
   its counters is non-zero or one of its histograms holds an
   observation; only the subsystems that ran reach a manifest, so a
   manifest never depends on which modules registered idle metrics. *)
let subsystem name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let ran counters histograms =
  let nonzero cells = List.exists (fun (_, v) -> v <> 0) cells in
  List.filter_map
    (fun (k, v) -> if v <> 0 then Some (subsystem k) else None)
    counters
  @ List.filter_map
      (fun (k, cells) -> if nonzero cells then Some (subsystem k) else None)
      histograms

let kept ran (name, _) = List.mem (subsystem name) ran
let active counters = List.filter (kept (ran counters [])) counters

let of_registry ?(labels = []) ?(extra_gauges = []) reg =
  let counters = Registry.counters reg
  and histograms = Registry.histograms reg in
  let ran = ran counters histograms in
  {
    labels;
    counters = List.filter (kept ran) counters;
    histograms = List.filter (kept ran) histograms;
    stages =
      List.map
        (fun (path, (count, seconds)) ->
          { stage_name = path; stage_count = count; stage_seconds = seconds })
        (Registry.spans reg);
    gauges =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Registry.gauges reg @ extra_gauges);
  }

let label t key = List.assoc_opt key t.labels
let counter t key = List.assoc_opt key t.counters
let gauge t key = List.assoc_opt key t.gauges

(* The deterministic half alone, for byte-comparison in tests and CI. *)
let counters_json t =
  Json.obj
    (List.map (fun (k, v) -> (k, Json.int v)) t.counters
    @ List.map
        (fun (name, cells) ->
          (name, Json.obj (List.map (fun (k, v) -> (k, Json.int v)) cells)))
        t.histograms)

let to_json t =
  Json.obj
    [
      ("schema", Json.str schema);
      ( "labels",
        Json.obj (List.map (fun (k, v) -> (k, Json.str v)) t.labels) );
      ( "counters",
        Json.obj (List.map (fun (k, v) -> (k, Json.int v)) t.counters) );
      ( "histograms",
        Json.obj
          (List.map
             (fun (name, cells) ->
               ( name,
                 Json.obj (List.map (fun (k, v) -> (k, Json.int v)) cells) ))
             t.histograms) );
      ( "stages",
        Json.arr
          (List.map
             (fun s ->
               Json.obj
                 [
                   ("name", Json.str s.stage_name);
                   ("count", Json.int s.stage_count);
                   ("seconds", Json.float s.stage_seconds);
                 ])
             t.stages) );
      ( "gauges",
        Json.obj (List.map (fun (k, v) -> (k, Json.float v)) t.gauges) );
    ]

let save file t =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_json t);
      output_char oc '\n')
