(* Central metric registry. Modules create named handles once (find-or-
   create, so a name is one cell process-wide) and bump them on their hot
   paths; consumers snapshot sorted association lists. [reset] zeroes the
   values but keeps the handles, so a front end can reset at the start of
   a run and read a per-run snapshot at the end while instrumented
   libraries hold their handles across runs.

   Domain safety: handle *bumps* are plain unsynchronised writes (racy
   but memory-safe, and the supervisor only reads deterministic counters
   derived from results, never the live registry, for gated outputs).
   Handle creation, span recording and snapshots mutate the Hashtbls
   themselves, which OCaml 5 does not make safe across domains — those
   paths take [lock]. The stack of open spans is domain-local, so
   concurrent batch jobs each build their own "run/collect/..." paths
   instead of interleaving onto one stack. *)

type span_stat = { mutable sp_count : int; mutable sp_seconds : float }

type t = {
  counters : (string, Metric.counter) Hashtbl.t;
  gauges : (string, Metric.gauge) Hashtbl.t;
  histograms : (string, Metric.histogram) Hashtbl.t;
  spans : (string, span_stat) Hashtbl.t;
  open_spans : string list Domain.DLS.key; (* open paths, innermost first *)
  lock : Mutex.t;
}

let create () =
  {
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    spans = Hashtbl.create 16;
    open_spans = Domain.DLS.new_key (fun () -> []);
    lock = Mutex.create ();
  }

let global = create ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find_or_create t tbl name make =
  locked t (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some m -> m
      | None ->
          let m = make name in
          Hashtbl.add tbl name m;
          m)

let counter ?(registry = global) name =
  find_or_create registry registry.counters name Metric.counter

let gauge ?(registry = global) name =
  find_or_create registry registry.gauges name Metric.gauge

let histogram ?(registry = global) ?bounds name =
  find_or_create registry registry.histograms name (Metric.histogram ?bounds)

let reset t =
  locked t (fun () ->
      Hashtbl.iter (fun _ c -> Metric.reset_counter c) t.counters;
      Hashtbl.iter (fun _ g -> Metric.reset_gauge g) t.gauges;
      Hashtbl.iter (fun _ h -> Metric.reset_histogram h) t.histograms;
      Hashtbl.reset t.spans)

let sorted_bindings t tbl value =
  locked t (fun () ->
      Hashtbl.fold (fun name m acc -> (name, value m) :: acc) tbl [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_bindings t t.counters Metric.value
let gauges t = sorted_bindings t t.gauges Metric.gauge_value

let histogram_cells (h : Metric.histogram) = Metric.cells h

let histograms t = sorted_bindings t t.histograms histogram_cells

(* --- spans ----------------------------------------------------------- *)

(* A span name's stage: its last dotted component ("pipeline.collect"
   records as "collect"). *)
let stage name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

(* A span is the one recorder of a layer boundary. Its duration goes to
   the registry under the slash-joined path of the open spans' stages, so
   the snapshot reads as a flame-graph outline. When the timeline is
   enabled it also brackets the caller's lane with Begin/End under the
   full name, both carrying [arg]. Reentrancy under the same path
   accumulates. The exit restores the stack it found rather than popping,
   so a span whose exit never ran (its fiber was dropped) cannot leak
   into paths opened after its enclosing span closes. *)
let with_span ?(registry = global) ?(arg = 0) name f =
  let t = registry in
  let stack = Domain.DLS.get t.open_spans in
  let path =
    match stack with
    | [] -> stage name
    | top :: _ -> top ^ "/" ^ stage name
  in
  Domain.DLS.set t.open_spans (path :: stack);
  let tl = if Timeline.enabled () then Some (Timeline.name name) else None in
  Option.iter (Timeline.begin_ ~arg) tl;
  let t0 = Clock.now () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Float.max 0.0 (Clock.now () -. t0) in
      Option.iter (Timeline.end_ ~arg) tl;
      Domain.DLS.set t.open_spans stack;
      locked t (fun () ->
          let s =
            match Hashtbl.find_opt t.spans path with
            | Some s -> s
            | None ->
                let s = { sp_count = 0; sp_seconds = 0.0 } in
                Hashtbl.add t.spans path s;
                s
          in
          s.sp_count <- s.sp_count + 1;
          s.sp_seconds <- s.sp_seconds +. dt))
    f

let spans t =
  locked t (fun () ->
      Hashtbl.fold
        (fun path s acc -> (path, (s.sp_count, s.sp_seconds)) :: acc)
        t.spans [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- snapshot arithmetic --------------------------------------------- *)

(* [delta ~before ~after] keeps every [after] key, subtracting the matching
   [before] value — the per-phase view of an accumulating registry. Both
   lists must be sorted by name (as all snapshots here are). *)
let delta ~before ~after =
  let rec go before after acc =
    match (before, after) with
    | _, [] -> List.rev acc
    | [], (k, v) :: a -> go [] a ((k, v) :: acc)
    | (kb, vb) :: b, (ka, va) :: a ->
        let c = String.compare kb ka in
        if c = 0 then go b a ((ka, va - vb) :: acc)
        else if c < 0 then go b after acc
        else go before a ((ka, va) :: acc)
  in
  go before after []
