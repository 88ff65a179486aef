(* Central metric registry. A per-event layer counts its run in its own
   fields and [publish]es the totals once, so its hot path writes no
   shared memory; a per-operation layer may bump a named handle (find-or-
   create: one cell per name). [reset] zeroes the values but keeps the
   cells, so a front end resets at the start of a run and snapshots sorted
   lists at the end.

   Domain safety: [publish], handle creation, spans and snapshots take
   [lock], so published totals are exact at any width; a handle bump is a
   plain racy write. Open spans are a domain-local stack, so concurrent
   jobs each build their own "run/collect/..." paths. *)

type span_stat = { mutable sp_count : int; mutable sp_seconds : float }

type t = {
  counters : (string, Metric.counter) Hashtbl.t;
  histograms : (string, Metric.histogram) Hashtbl.t;
  spans : (string, span_stat) Hashtbl.t;
  open_spans : string list Domain.DLS.key; (* open paths, innermost first *)
  lock : Mutex.t;
}

let create () =
  {
    counters = Hashtbl.create 64;
    histograms = Hashtbl.create 16;
    spans = Hashtbl.create 16;
    open_spans = Domain.DLS.new_key (fun () -> []);
    lock = Mutex.create ();
  }

let global = create ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Callers hold [lock]. *)
let cell tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some m -> m
  | None ->
      let m = make () in
      Hashtbl.add tbl name m;
      m

let counter ?(registry = global) name =
  locked registry (fun () -> cell registry.counters name Metric.counter)

let publish ?registry:(t = global) ?(histograms = []) totals =
  locked t (fun () ->
      List.iter (fun (k, n) -> Metric.add (cell t.counters k Metric.counter) n)
        totals;
      List.iter
        (fun (k, h) ->
          let make = Metric.histogram ~bounds:(Metric.bounds h) in
          Metric.merge ~into:(cell t.histograms k make) h)
        histograms)

let reset t =
  locked t (fun () ->
      Hashtbl.iter (fun _ c -> Metric.reset_counter c) t.counters;
      Hashtbl.iter (fun _ h -> Metric.reset_histogram h) t.histograms;
      Hashtbl.reset t.spans)

let sorted_bindings t tbl value =
  locked t (fun () ->
      Hashtbl.fold (fun name m acc -> (name, value m) :: acc) tbl [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_bindings t t.counters Metric.value

let histograms t = sorted_bindings t t.histograms Metric.cells

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
