(* Unit and property tests for the trace substrate: ids, sites, events,
   trace buffers and the interning tables. *)

let site = Trace.Site.v

module Tid_tests = struct
  let roundtrip () =
    Alcotest.(check int) "to_int (of_int 7)" 7
      (Trace.Tid.to_int (Trace.Tid.of_int 7))

  let main_is_zero () =
    Alcotest.(check int) "main" 0 (Trace.Tid.to_int Trace.Tid.main)

  let negative_rejected () =
    Alcotest.check_raises "negative"
      (Invalid_argument "Tid.of_int: negative thread id") (fun () ->
        ignore (Trace.Tid.of_int (-1)))

  let equality () =
    Alcotest.(check bool) "equal" true
      (Trace.Tid.equal (Trace.Tid.of_int 3) (Trace.Tid.of_int 3));
    Alcotest.(check bool) "not equal" false
      (Trace.Tid.equal (Trace.Tid.of_int 3) (Trace.Tid.of_int 4))

  let tests =
    [
      Alcotest.test_case "roundtrip" `Quick roundtrip;
      Alcotest.test_case "main is zero" `Quick main_is_zero;
      Alcotest.test_case "negative rejected" `Quick negative_rejected;
      Alcotest.test_case "equality" `Quick equality;
    ]
end

module Site_tests = struct
  let of_pos () =
    let s = Trace.Site.of_pos __POS__ in
    Alcotest.(check string) "file" "test/test_trace.ml" s.Trace.Site.file;
    Alcotest.(check bool) "line positive" true (s.Trace.Site.line > 0)

  let location () =
    Alcotest.(check string) "location" "a.ml:12"
      (Trace.Site.location (site "a.ml" 12))

  let equal_ignores_nothing () =
    Alcotest.(check bool) "same" true
      (Trace.Site.equal (site "a.ml" 1) (site "a.ml" 1));
    Alcotest.(check bool) "diff line" false
      (Trace.Site.equal (site "a.ml" 1) (site "a.ml" 2));
    Alcotest.(check bool) "diff frames" false
      (Trace.Site.equal
         (site ~frames:[ "f" ] "a.ml" 1)
         (site ~frames:[ "g" ] "a.ml" 1))

  let compare_total_order () =
    let a = site "a.ml" 1 and b = site "b.ml" 1 in
    Alcotest.(check bool) "a < b" true (Trace.Site.compare a b < 0);
    Alcotest.(check bool) "b > a" true (Trace.Site.compare b a > 0);
    Alcotest.(check int) "a = a" 0 (Trace.Site.compare a a)

  let backtrace_rendering () =
    let s = site ~frames:[ "inner"; "outer" ] "a.ml" 3 in
    let str = Format.asprintf "%a" Trace.Site.pp_backtrace s in
    Alcotest.(check bool) "mentions frames" true
      (String.length str > String.length "a.ml:3")

  let tests =
    [
      Alcotest.test_case "of_pos uses __POS__" `Quick of_pos;
      Alcotest.test_case "location format" `Quick location;
      Alcotest.test_case "equality" `Quick equal_ignores_nothing;
      Alcotest.test_case "compare is a total order" `Quick compare_total_order;
      Alcotest.test_case "backtrace rendering" `Quick backtrace_rendering;
    ]
end

module Event_tests = struct
  let s = site "x.ml" 1

  let tid_of_each_kind () =
    let t0 = Trace.Tid.of_int 0 and t1 = Trace.Tid.of_int 1 in
    let check name ev expect =
      Alcotest.(check int) name expect (Trace.Tid.to_int (Trace.Event.tid ev))
    in
    check "store"
      (Trace.Event.Store
         { tid = t1; addr = 0; size = 8; site = s; non_temporal = false })
      1;
    check "load" (Trace.Event.Load { tid = t1; addr = 0; size = 8; site = s }) 1;
    check "flush"
      (Trace.Event.Flush { tid = t1; line = 0; kind = Trace.Event.Clwb; site = s })
      1;
    check "fence" (Trace.Event.Fence { tid = t1; site = s }) 1;
    check "create" (Trace.Event.Thread_create { parent = t0; child = t1 }) 0;
    check "join" (Trace.Event.Thread_join { waiter = t0; joined = t1 }) 0

  let pm_access_classification () =
    let t = Trace.Tid.main in
    Alcotest.(check bool) "store" true
      (Trace.Event.is_pm_access
         (Trace.Event.Store
            { tid = t; addr = 0; size = 1; site = s; non_temporal = false }));
    Alcotest.(check bool) "fence" false
      (Trace.Event.is_pm_access (Trace.Event.Fence { tid = t; site = s }))

  let tests =
    [
      Alcotest.test_case "tid of each kind" `Quick tid_of_each_kind;
      Alcotest.test_case "is_pm_access" `Quick pm_access_classification;
    ]
end

module Tracebuf_tests = struct
  let s = site "x.ml" 1
  let t0 = Trace.Tid.main

  let mk_load i =
    Trace.Event.Load { tid = t0; addr = i; size = 8; site = s }

  let push_get () =
    let tb = Trace.Tracebuf.create ~capacity:2 () in
    for i = 0 to 99 do
      Trace.Tracebuf.push tb (mk_load i)
    done;
    Alcotest.(check int) "length" 100 (Trace.Tracebuf.length tb);
    (match Trace.Tracebuf.get tb 57 with
    | Trace.Event.Load { addr; _ } -> Alcotest.(check int) "addr" 57 addr
    | _ -> Alcotest.fail "wrong event");
    Alcotest.check_raises "oob"
      (Invalid_argument "Tracebuf.get: index out of bounds") (fun () ->
        ignore (Trace.Tracebuf.get tb 100))

  let of_list_roundtrip () =
    let evs = List.init 10 mk_load in
    let tb = Trace.Tracebuf.of_list evs in
    Alcotest.(check int) "length" 10 (Trace.Tracebuf.length tb);
    Alcotest.(check bool) "roundtrip" true
      (List.for_all2
         (fun a b -> a == b)
         evs (Trace.Tracebuf.to_list tb))

  let stats () =
    let tb =
      Trace.Tracebuf.of_list
        [
          mk_load 0;
          Trace.Event.Store
            { tid = t0; addr = 0; size = 8; site = s; non_temporal = false };
          Trace.Event.Flush
            { tid = t0; line = 0; kind = Trace.Event.Clwb; site = s };
          Trace.Event.Fence { tid = t0; site = s };
          Trace.Event.Lock_acquire
            { tid = t0; lock = Trace.Lock_id.of_int 0; site = s };
          Trace.Event.Lock_release
            { tid = t0; lock = Trace.Lock_id.of_int 0; site = s };
          Trace.Event.Thread_create
            { parent = t0; child = Trace.Tid.of_int 1 };
        ]
    in
    let st = Trace.Tracebuf.stats tb in
    Alcotest.(check int) "stores" 1 st.Trace.Tracebuf.stores;
    Alcotest.(check int) "loads" 1 st.Trace.Tracebuf.loads;
    Alcotest.(check int) "flushes" 1 st.Trace.Tracebuf.flushes;
    Alcotest.(check int) "fences" 1 st.Trace.Tracebuf.fences;
    Alcotest.(check int) "lock ops" 2 st.Trace.Tracebuf.lock_ops;
    Alcotest.(check int) "thread ops" 1 st.Trace.Tracebuf.thread_ops

  let fold_counts () =
    let tb = Trace.Tracebuf.of_list (List.init 25 mk_load) in
    Alcotest.(check int) "fold" 25
      (Trace.Tracebuf.fold (fun acc _ -> acc + 1) 0 tb)

  let tests =
    [
      Alcotest.test_case "push/get with growth" `Quick push_get;
      Alcotest.test_case "of_list roundtrip" `Quick of_list_roundtrip;
      Alcotest.test_case "stats" `Quick stats;
      Alcotest.test_case "fold" `Quick fold_counts;
    ]
end

module Interner_tests = struct
  module I = Trace.Interner.Make (struct
    type t = string

    let equal = String.equal
    let hash = Hashtbl.hash
  end)

  let dedup () =
    let t = I.create () in
    let a = I.intern t "hello" in
    let b = I.intern t "world" in
    let a' = I.intern t "hello" in
    Alcotest.(check int) "same id" a a';
    Alcotest.(check bool) "distinct ids" true (a <> b);
    Alcotest.(check int) "count" 2 (I.count t);
    Alcotest.(check string) "get" "world" (I.get t b)

  let unknown_id () =
    let t = I.create () in
    Alcotest.check_raises "unknown" (Invalid_argument "Interner.get: unknown id")
      (fun () -> ignore (I.get t 0))

  let dense_ids =
    QCheck.Test.make ~name:"interner ids are dense and stable" ~count:100
      QCheck.(small_list small_string)
      (fun strings ->
        let t = I.create () in
        let ids = List.map (I.intern t) strings in
        (* Re-interning yields identical ids. *)
        let ids' = List.map (I.intern t) strings in
        ids = ids'
        && List.for_all (fun id -> id >= 0 && id < I.count t) ids
        && List.for_all2
             (fun s id -> String.equal (I.get t id) s)
             strings ids)

  let tests =
    [
      Alcotest.test_case "dedup" `Quick dedup;
      Alcotest.test_case "unknown id" `Quick unknown_id;
      QCheck_alcotest.to_alcotest dense_ids;
    ]
end

module Trace_io_tests = struct
  let t0 = Trace.Tid.main
  let t1 = Trace.Tid.of_int 1

  let sample_events =
    [
      Trace.Event.Store
        { tid = t0; addr = 128; size = 8;
          site = Trace.Site.v ~frames:[ "insert"; "main" ] "a.ml" 10;
          non_temporal = false };
      Trace.Event.Store
        { tid = t1; addr = 64; size = 4; site = Trace.Site.v "b.ml" 2;
          non_temporal = true };
      Trace.Event.Load
        { tid = t1; addr = 128; size = 8; site = Trace.Site.v "a.ml" 99 };
      Trace.Event.Flush
        { tid = t0; line = 128; kind = Trace.Event.Clflushopt;
          site = Trace.Site.v "a.ml" 11 };
      Trace.Event.Fence { tid = t0; site = Trace.Site.v "a.ml" 12 };
      Trace.Event.Lock_acquire
        { tid = t1; lock = Trace.Lock_id.of_int 3; site = Trace.Site.v "c.ml" 5 };
      Trace.Event.Lock_release
        { tid = t1; lock = Trace.Lock_id.of_int 3; site = Trace.Site.v "c.ml" 6 };
      Trace.Event.Thread_create { parent = t0; child = t1 };
      Trace.Event.Thread_join { waiter = t0; joined = t1 };
    ]

  let line_roundtrip () =
    List.iter
      (fun ev ->
        let line = Trace.Trace_io.event_to_line ev in
        let ev' = Trace.Trace_io.event_of_line line in
        Alcotest.(check string) line line (Trace.Trace_io.event_to_line ev'))
      sample_events

  let file_roundtrip () =
    let path = Filename.temp_file "hawkset" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let t = Trace.Tracebuf.of_list sample_events in
        Trace.Trace_io.save path t;
        let t' = Trace.Trace_io.load path in
        Alcotest.(check int) "length" (Trace.Tracebuf.length t)
          (Trace.Tracebuf.length t');
        List.iteri
          (fun i ev ->
            Alcotest.(check string)
              (Printf.sprintf "event %d" i)
              (Trace.Trace_io.event_to_line ev)
              (Trace.Trace_io.event_to_line (Trace.Tracebuf.get t' i)))
          sample_events)

  let comments_and_blanks_skipped () =
    let path = Filename.temp_file "hawkset" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc "# a comment

M 0 x.ml:1
";
        close_out oc;
        Alcotest.(check int) "one event" 1
          (Trace.Tracebuf.length (Trace.Trace_io.load path)))

  let parse_errors () =
    let bad line =
      try
        ignore (Trace.Trace_io.event_of_line line);
        Alcotest.failf "expected parse error for %S" line
      with Trace.Trace_io.Parse_error _ -> ()
    in
    bad "X 0 1 2";
    bad "S 0 nonint 8 0 a.ml:1";
    bad "S 0 1 8 0 nodolon";
    bad "F 0 64 notakind a.ml:1"

  let analysis_survives_roundtrip () =
    (* Serialize a racy trace; the analysis result must be identical. *)
    let evs =
      [
        Trace.Event.Store
          { tid = t0; addr = 128; size = 8; site = Trace.Site.v "r.ml" 1;
            non_temporal = false };
        Trace.Event.Thread_create { parent = t0; child = t1 };
        Trace.Event.Load
          { tid = t1; addr = 128; size = 8; site = Trace.Site.v "r.ml" 2 };
      ]
    in
    let path = Filename.temp_file "hawkset" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let t = Trace.Tracebuf.of_list evs in
        Trace.Trace_io.save path t;
        let t' = Trace.Trace_io.load path in
        Alcotest.(check int) "same verdict" 1
          (Hawkset.Report.count
             (Hawkset.Pipeline.races ~config:Hawkset.Pipeline.no_irh t')))

  (* Degenerate inputs for the tolerant reader: a zero-length file and a
     header-only file are valid empty traces (nothing dropped, no error,
     no trailer), not crashes. *)
  let tolerant_degenerate content () =
    let path = Filename.temp_file "hawkset" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        let t = Trace.Trace_io.load_tolerant path in
        Alcotest.(check int) "salvaged events" 0 t.Trace.Trace_io.salvaged_events;
        Alcotest.(check int) "tracebuf empty" 0
          (Trace.Tracebuf.length t.Trace.Trace_io.salvaged);
        Alcotest.(check int) "dropped lines" 0 t.Trace.Trace_io.dropped_lines;
        Alcotest.(check bool) "no first error" true
          (t.Trace.Trace_io.first_error = None);
        Alcotest.(check bool) "checksum absent" true
          (t.Trace.Trace_io.checksum = `Absent))

  let junk_never_crashes =
    QCheck.Test.make ~name:"malformed lines raise Parse_error, never crash"
      ~count:300
      QCheck.(string_of_size (QCheck.Gen.int_bound 40))
      (fun line ->
        match Trace.Trace_io.event_of_line line with
        | _ -> true
        | exception Trace.Trace_io.Parse_error _ -> true)

  let tests =
    [
      QCheck_alcotest.to_alcotest junk_never_crashes;
      Alcotest.test_case "line roundtrip" `Quick line_roundtrip;
      Alcotest.test_case "file roundtrip" `Quick file_roundtrip;
      Alcotest.test_case "comments and blanks" `Quick comments_and_blanks_skipped;
      Alcotest.test_case "parse errors" `Quick parse_errors;
      Alcotest.test_case "analysis survives roundtrip" `Quick
        analysis_survives_roundtrip;
      Alcotest.test_case "tolerant on zero-length file" `Quick
        (tolerant_degenerate "");
      Alcotest.test_case "tolerant on header-only file" `Quick
        (tolerant_degenerate "# hawkset-trace 1\n");
    ]
end

module Fuzz_tests = struct
  (* Corruption fuzzing for the trace format: serialized traces carry a
     checksum trailer, so the strict reader must either return exactly
     what was written or raise [Parse_error] — silently returning altered
     events is the one forbidden outcome. The tolerant reader must never
     raise and must salvage exactly the valid prefix. *)

  let gen_event =
    QCheck.Gen.(
      let tid = map Trace.Tid.of_int (int_bound 3) in
      let addr = map (fun i -> 64 + (8 * i)) (int_bound 64) in
      let size = oneofl [ 1; 2; 4; 8 ] in
      let site =
        map3
          (fun f l frames -> Trace.Site.v ~frames (Printf.sprintf "f%d.ml" f) l)
          (int_bound 4) (int_range 1 500)
          (oneofl [ []; [ "ins" ]; [ "ins"; "main" ] ])
      in
      frequency
        [
          ( 4,
            map2
              (fun (tid, addr) (size, site) ->
                Trace.Event.Store
                  { tid; addr; size; site; non_temporal = false })
              (pair tid addr) (pair size site) );
          ( 4,
            map2
              (fun (tid, addr) (size, site) ->
                Trace.Event.Load { tid; addr; size; site })
              (pair tid addr) (pair size site) );
          ( 2,
            map3
              (fun tid addr site ->
                Trace.Event.Flush
                  { tid; line = addr; kind = Trace.Event.Clwb; site })
              tid addr site );
          (2, map2 (fun tid site -> Trace.Event.Fence { tid; site }) tid site);
          ( 1,
            map3
              (fun tid lock site ->
                Trace.Event.Lock_acquire
                  { tid; lock = Trace.Lock_id.of_int lock; site })
              tid (int_bound 7) site );
          ( 1,
            map3
              (fun tid lock site ->
                Trace.Event.Lock_release
                  { tid; lock = Trace.Lock_id.of_int lock; site })
              tid (int_bound 7) site );
        ])

  let gen_events = QCheck.Gen.(list_size (int_range 1 30) gen_event)

  let canon t = List.map Trace.Trace_io.event_to_line (Trace.Tracebuf.to_list t)

  (* Serialize through the real writer so the string carries the trailer. *)
  let serialize evs =
    let path = Filename.temp_file "hawkset_fuzz" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Trace.Trace_io.save path (Trace.Tracebuf.of_list evs);
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic)))

  let with_string s f =
    let path = Filename.temp_file "hawkset_fuzz" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out_bin path in
        output_string oc s;
        close_out oc;
        f path)

  (* Complete event lines fully contained in [prefix] — what a tolerant
     read of the truncated file must at least recover. *)
  let complete_events prefix =
    let lines = String.split_on_char '\n' prefix in
    let lines =
      (* Without a trailing newline the final segment is a partial line. *)
      if String.length prefix > 0 && prefix.[String.length prefix - 1] = '\n'
      then lines
      else match List.rev lines with [] -> [] | _ :: r -> List.rev r
    in
    List.length
      (List.filter
         (fun l ->
           let t = String.trim l in
           t <> "" && t.[0] <> '#')
         lines)

  let roundtrip_with_trailer =
    QCheck.Test.make ~name:"save/load round-trips and verifies the trailer"
      ~count:100 (QCheck.make gen_events) (fun evs ->
        let s = serialize evs in
        let has_trailer =
          List.exists
            (fun l ->
              String.length l >= 10 && String.sub l 0 10 = "# trailer ")
            (String.split_on_char '\n' s)
        in
        with_string s (fun path ->
            let strict = Trace.Trace_io.load path in
            let t = Trace.Trace_io.load_tolerant path in
            has_trailer
            && canon strict = List.map Trace.Trace_io.event_to_line evs
            && t.Trace.Trace_io.checksum = `Verified
            && t.Trace.Trace_io.dropped_lines = 0
            && t.Trace.Trace_io.first_error = None
            && canon t.Trace.Trace_io.salvaged = canon strict))

  let truncate_salvages_prefix =
    QCheck.Test.make ~name:"truncation at any byte salvages a valid prefix"
      ~count:200
      QCheck.(make Gen.(pair gen_events (float_bound_inclusive 1.0)))
      (fun (evs, frac) ->
        let s = serialize evs in
        let k = int_of_float (frac *. float_of_int (String.length s)) in
        let k = min k (String.length s) in
        let prefix = String.sub s 0 k in
        let complete = complete_events prefix in
        let orig = List.map Trace.Trace_io.event_to_line evs in
        with_string prefix (fun path ->
            let t = Trace.Trace_io.load_tolerant path in
            let n = List.length evs in
            let salvaged = canon t.Trace.Trace_io.salvaged in
            (* Salvage is exactly the complete lines, plus at most one
               event from a cut line that happens to still parse. *)
            t.Trace.Trace_io.salvaged_events >= complete
            && t.Trace.Trace_io.salvaged_events <= min n (complete + 1)
            && List.for_all2 ( = )
                 (List.filteri (fun i _ -> i < complete) salvaged)
                 (List.filteri (fun i _ -> i < complete) orig)
            && (k < String.length s
               || t.Trace.Trace_io.checksum = `Verified
                  && t.Trace.Trace_io.salvaged_events = n)
            (* The strict reader may reject the truncation, but if it
               accepts, everything before any cut line matches what was
               written. *)
            &&
            match Trace.Trace_io.load path with
            | strict ->
                let c = canon strict in
                List.length c <= n
                && List.for_all2 ( = )
                     (List.filteri (fun i _ -> i < complete) c)
                     (List.filteri (fun i _ -> i < complete) orig)
            | exception Trace.Trace_io.Parse_error _ -> true))

  let flip_is_caught =
    QCheck.Test.make
      ~name:"a flipped byte either fails the load or changes nothing"
      ~count:300
      QCheck.(
        make Gen.(triple gen_events (float_bound_inclusive 1.0) (int_range 1 255)))
      (fun (evs, frac, xor) ->
        let s = serialize evs in
        let p =
          min (String.length s - 1)
            (int_of_float (frac *. float_of_int (String.length s)))
        in
        let flipped = Bytes.of_string s in
        Bytes.set flipped p (Char.chr (Char.code s.[p] lxor xor));
        let flipped = Bytes.to_string flipped in
        with_string flipped (fun path ->
            (* Forbidden outcome: a strict load that "succeeds" with
               different events than were written. *)
            (match Trace.Trace_io.load path with
            | strict -> canon strict = List.map Trace.Trace_io.event_to_line evs
            | exception Trace.Trace_io.Parse_error _ -> true)
            &&
            (* The tolerant reader absorbs the same corruption. *)
            match Trace.Trace_io.load_tolerant path with
            | _ -> true
            | exception Trace.Trace_io.Parse_error _ -> false))

  let inject_malformed_line =
    QCheck.Test.make
      ~name:"a malformed line is located exactly; tolerant salvages before it"
      ~count:200
      QCheck.(make Gen.(pair gen_events (float_bound_inclusive 1.0)))
      (fun (evs, frac) ->
        let n = List.length evs in
        let j = min n (int_of_float (frac *. float_of_int (n + 1))) in
        let lines = String.split_on_char '\n' (serialize evs) in
        (* serialize ends with '\n': last split segment is "". Lines:
           header, n events, trailer, "". Insert before event j, i.e. at
           list index 1 + j; its 1-based line number is j + 2. *)
        let rec insert i = function
          | rest when i = 0 -> "Z bogus" :: rest
          | [] -> [ "Z bogus" ]
          | l :: rest -> l :: insert (i - 1) rest
        in
        let corrupted = String.concat "\n" (insert (1 + j) lines) in
        let orig = List.map Trace.Trace_io.event_to_line evs in
        with_string corrupted (fun path ->
            (match Trace.Trace_io.load path with
            | _ -> false
            | exception Trace.Trace_io.Parse_error (line, _) -> line = j + 2)
            &&
            let t = Trace.Trace_io.load_tolerant path in
            t.Trace.Trace_io.salvaged_events = j
            && canon t.Trace.Trace_io.salvaged
               = List.filteri (fun i _ -> i < j) orig
            && t.Trace.Trace_io.dropped_lines = 1 + (n - j)
            && (match t.Trace.Trace_io.first_error with
               | Some (line, _) -> line = j + 2
               | None -> false)
            && t.Trace.Trace_io.checksum
               = (if j = n then `Verified else `Mismatch)))

  (* The FNV-1a fold as first written (a closure over an [Int64 ref]):
     fingerprints, trailers and journal checksums are pinned to it. *)
  let old_fnv h s =
    let h = ref h in
    String.iter
      (fun c ->
        h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
            0x100000001b3L)
      s;
    !h

  let fnv_matches_old_definition =
    QCheck.Test.make ~name:"FNV fold equals its original definition"
      ~count:300
      QCheck.(make Gen.(pair gen_events (string_size (int_bound 300))))
      (fun (evs, bytes) ->
        let trace_hash =
          List.fold_left
            (fun h ev -> old_fnv h (Trace.Trace_io.event_to_line ev ^ "\n"))
            0xcbf29ce484222325L evs
        in
        Trace.Trace_io.fingerprint (Trace.Tracebuf.of_list evs)
        = Printf.sprintf "%016Lx" trace_hash
        && Trace.Journal.fnv_hex bytes
           = Printf.sprintf "%016Lx" (old_fnv 0xcbf29ce484222325L bytes))

  let tests =
    [
      QCheck_alcotest.to_alcotest roundtrip_with_trailer;
      QCheck_alcotest.to_alcotest truncate_salvages_prefix;
      QCheck_alcotest.to_alcotest flip_is_caught;
      QCheck_alcotest.to_alcotest inject_malformed_line;
      QCheck_alcotest.to_alcotest fnv_matches_old_definition;
    ]
end

module Int_tbl_tests = struct
  module S = Trace.Int_tbl.Set
  module M = Trace.Int_tbl.Map

  let set_clear_refill_at_boundary () =
    (* Fill a small table through several growths, clear, refill with a
       disjoint key range: [clear] keeps capacity, so the refill lands in
       the same arrays — membership must be exact for both ranges. *)
    let t = S.create ~size:8 () in
    for k = 0 to 63 do
      Alcotest.(check bool) "fresh add" true (S.add t k)
    done;
    Alcotest.(check int) "filled" 64 (S.length t);
    S.clear t;
    Alcotest.(check int) "cleared" 0 (S.length t);
    for k = 0 to 63 do
      Alcotest.(check bool) "old key gone" false (S.mem t k)
    done;
    for k = 100 to 163 do
      Alcotest.(check bool) "refill add" true (S.add t k)
    done;
    Alcotest.(check int) "refilled" 64 (S.length t);
    for k = 100 to 163 do
      Alcotest.(check bool) "new key present" true (S.mem t k)
    done;
    for k = 0 to 63 do
      Alcotest.(check bool) "old key still gone" false (S.mem t k)
    done

  let set_churn_matches_model () =
    (* Insert churn over a key range far wider than the initial
       capacity, with periodic clear-and-refill, mirrored against a
       Hashtbl model: growth and a cleared table's reuse must never lose
       or resurrect a key. *)
    let t = S.create ~size:8 () in
    let model = Hashtbl.create 64 in
    let rng = Random.State.make [| 7 |] in
    for step = 1 to 5_000 do
      if step mod 1_000 = 0 then begin
        Hashtbl.reset model;
        S.clear t
      end;
      let k = Random.State.int rng 2_000 in
      let fresh = not (Hashtbl.mem model k) in
      Hashtbl.replace model k ();
      Alcotest.(check bool) "add agrees with model" fresh (S.add t k)
    done;
    Alcotest.(check int) "length agrees" (Hashtbl.length model) (S.length t);
    for k = 0 to 1_999 do
      Alcotest.(check bool)
        (Printf.sprintf "mem %d agrees" k)
        (Hashtbl.mem model k) (S.mem t k)
    done

  let map_churn_matches_model () =
    let t = M.create ~size:8 () in
    let model = Hashtbl.create 64 in
    let rng = Random.State.make [| 11 |] in
    for step = 1 to 5_000 do
      if step mod 1_000 = 0 then begin
        Hashtbl.reset model;
        M.clear t
      end;
      let k = Random.State.int rng 2_000 in
      Hashtbl.replace model k step;
      M.set t k step
    done;
    Alcotest.(check int) "length agrees" (Hashtbl.length model) (M.length t);
    for k = 0 to 1_999 do
      Alcotest.(check int)
        (Printf.sprintf "find %d agrees" k)
        (Option.value ~default:(-1) (Hashtbl.find_opt model k))
        (M.find t k)
    done

  let tests =
    [
      Alcotest.test_case "set clear+refill at capacity" `Quick
        set_clear_refill_at_boundary;
      Alcotest.test_case "set churn matches model" `Quick
        set_churn_matches_model;
      Alcotest.test_case "map churn matches model" `Quick
        map_churn_matches_model;
    ]
end

module Vec_tests = struct
  module V = Trace.Vec

  let growth_from_empty () =
    let v = V.create () in
    Alcotest.(check int) "starts empty" 0 (V.length v);
    for i = 0 to 99 do
      V.push v (i * 3)
    done;
    Alcotest.(check int) "length" 100 (V.length v);
    for i = 0 to 99 do
      Alcotest.(check int) (Printf.sprintf "get %d" i) (i * 3) (V.get v i)
    done

  let growth_from_one () =
    (* The 1-element vector exercises the smallest doubling step: the
       second push must grow, not overwrite. *)
    let v = V.create () in
    V.push v "a";
    V.push v "b";
    Alcotest.(check int) "length" 2 (V.length v);
    Alcotest.(check string) "first survives growth" "a" (V.get v 0);
    Alcotest.(check string) "second" "b" (V.get v 1)

  let clear_then_refill () =
    let v = V.create () in
    for i = 0 to 9 do
      V.push v i
    done;
    V.clear v;
    Alcotest.(check int) "cleared" 0 (V.length v);
    V.push v 42;
    Alcotest.(check int) "refill length" 1 (V.length v);
    Alcotest.(check int) "refill value" 42 (V.get v 0);
    let seen = ref [] in
    V.iter (fun x -> seen := x :: !seen) v;
    Alcotest.(check (list int)) "iter sees only live elements" [ 42 ] !seen

  let tests =
    [
      Alcotest.test_case "growth from empty" `Quick growth_from_empty;
      Alcotest.test_case "growth from one element" `Quick growth_from_one;
      Alcotest.test_case "clear then refill" `Quick clear_then_refill;
    ]
end

let () =
  Alcotest.run "trace"
    [
      ("tid", Tid_tests.tests);
      ("site", Site_tests.tests);
      ("event", Event_tests.tests);
      ("tracebuf", Tracebuf_tests.tests);
      ("interner", Interner_tests.tests);
      ("trace_io", Trace_io_tests.tests);
      ("int_tbl", Int_tbl_tests.tests);
      ("vec", Vec_tests.tests);
      ("fuzz", Fuzz_tests.tests);
    ]
