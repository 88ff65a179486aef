(* Unit and property tests for the trace substrate: ids, sites, events,
   trace buffers and the interning tables. *)

let site = Trace.Site.v

(* A trace as v1 text, from the v1 encoder ([event_to_line] and
   [fingerprint]): the bytes a v1 writer emits, trailer included. *)
let v1_text t =
  let b = Buffer.create 256 in
  Buffer.add_string b "# hawkset-trace 1\n";
  Trace.Tracebuf.iter
    (fun ev ->
      Buffer.add_string b (Trace.Trace_io.event_to_line ev);
      Buffer.add_char b '\n')
    t;
  Printf.bprintf b "# trailer events=%d fnv1a=%s\n"
    (Trace.Tracebuf.length t)
    (Trace.Trace_io.fingerprint t);
  Buffer.contents b

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_string s f =
  let path = Filename.temp_file "hawkset_fuzz" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc s;
      close_out oc;
      f path)

(* Every two equal sites of [t]'s events are one value. *)
let sites_shared t =
  let sites =
    List.filter_map
      (function
        | Trace.Event.Thread_create _ | Trace.Event.Thread_join _ -> None
        | Trace.Event.Store { site; _ } | Trace.Event.Load { site; _ }
        | Trace.Event.Flush { site; _ } | Trace.Event.Fence { site; _ }
        | Trace.Event.Lock_acquire { site; _ }
        | Trace.Event.Lock_release { site; _ } ->
            Some site)
      (Trace.Tracebuf.to_list t)
  in
  List.for_all
    (fun a -> List.for_all (fun b -> a == b || not (Trace.Site.equal a b)) sites)
    sites

(* A trace as [Trace_io.save] writes it: v2. *)
let v2_bytes t =
  let path = Filename.temp_file "hawkset_v2" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.Trace_io.save path t;
      read_file path)

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

  (* An id the caller holds is pushed as given, and one the table never
     gave is refused. *)
  let push_with_site () =
    let tb = Trace.Tracebuf.create () in
    let id = Trace.Tracebuf.add_site tb s in
    Alcotest.(check int) "same site, same id" id
      (Trace.Tracebuf.add_site tb (site "x.ml" 1));
    Trace.Tracebuf.push_with_site tb (mk_load 0) id;
    Trace.Tracebuf.push_with_site tb
      (Trace.Event.Thread_create { parent = t0; child = Trace.Tid.of_int 1 })
      (-1);
    Alcotest.(check (list int)) "ids" [ id; -1 ]
      [ Trace.Tracebuf.site_id tb 0; Trace.Tracebuf.site_id tb 1 ];
    Alcotest.(check bool) "the table's site" true
      (Trace.Tracebuf.site tb id == s);
    Alcotest.check_raises "unknown id"
      (Invalid_argument "Tracebuf.push_with_site: unknown site id") (fun () ->
        Trace.Tracebuf.push_with_site tb (mk_load 1) (id + 1))

  let tests =
    [
      Alcotest.test_case "push/get with growth" `Quick push_get;
      Alcotest.test_case "push_with_site" `Quick push_with_site;
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

  (* A thread event with the wrong number of fields names its field
     count (it used to be reported as an unknown tag), at its own line. *)
  let thread_event_field_count () =
    let msg line =
      match Trace.Trace_io.event_of_line line with
      | _ -> Alcotest.failf "expected parse error for %S" line
      | exception Trace.Trace_io.Parse_error (_, m) -> m
    in
    Alcotest.(check string) "C, three fields" "\"C\" expects 2 fields, got 3"
      (msg "C 1 2 3");
    Alcotest.(check string) "C, one field" "\"C\" expects 2 fields, got 1"
      (msg "C 1");
    Alcotest.(check string) "J, none" "\"J\" expects 2 fields, got 0"
      (msg "J");
    let path = Filename.temp_file "hawkset" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc "# hawkset-trace 1\nM 0 x.ml:1\n\nJ 0 1 2\n";
        close_out oc;
        match Trace.Trace_io.load path with
        | _ -> Alcotest.fail "expected parse error"
        | exception Trace.Trace_io.Parse_error (line, m) ->
            Alcotest.(check (pair int string)) "located"
              (4, "\"J\" expects 2 fields, got 3") (line, m))

  (* Any tagged event line with too few fields names the expected and
     actual count, not an unknown tag. *)
  let event_field_count () =
    let msg line =
      match Trace.Trace_io.event_of_line line with
      | _ -> Alcotest.failf "expected parse error for %S" line
      | exception Trace.Trace_io.Parse_error (_, m) -> m
    in
    List.iter
      (fun (line, expected) ->
        Alcotest.(check string) line expected (msg line))
      [
        ("S 0 64 8", "\"S\" expects 4 fields and a site, got 3");
        ("L 0", "\"L\" expects 3 fields and a site, got 1");
        ("F 0 64", "\"F\" expects 3 fields and a site, got 2");
        ("M", "\"M\" expects 1 field and a site, got 0");
        ("A 0", "\"A\" expects 2 fields and a site, got 1");
        ("R", "\"R\" expects 2 fields and a site, got 0");
      ]

  (* A negative thread or lock id is a parse error at its line, so the
     tolerant reader salvages the events before it instead of dying. *)
  let negative_ids () =
    let msg line =
      match Trace.Trace_io.event_of_line line with
      | _ -> Alcotest.failf "expected parse error for %S" line
      | exception Trace.Trace_io.Parse_error (_, m) -> m
    in
    Alcotest.(check string) "store tid" "negative thread id -1"
      (msg "S -1 64 8 0 a.ml:2");
    Alcotest.(check string) "join target" "negative thread id -3"
      (msg "J 0 -3");
    Alcotest.(check string) "lock id" "negative lock id -7"
      (msg "A 0 -7 a.ml:2");
    let path = Filename.temp_file "hawkset" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc
          ("# hawkset-trace 1\nC 0 1\nS 1 64 8 0 a.ml:1\n"
         ^ "S -1 64 8 0 a.ml:2\nL 0 64 8 a.ml:3\n");
        close_out oc;
        let t = Trace.Trace_io.load_tolerant path in
        Alcotest.(check int) "salvaged" 2 t.Trace.Trace_io.salvaged_events;
        Alcotest.(check int) "dropped" 2 t.Trace.Trace_io.dropped_lines;
        Alcotest.(check (option (pair int string))) "first error"
          (Some (4, "negative thread id -1"))
          t.Trace.Trace_io.first_error)

  (* Every committed fixture survives a load and the v1 encoder byte for
     byte; the two written before the trailer existed gain exactly the
     trailer line. Re-saved (as v2), each loads back to the same
     fingerprint. *)
  let fixtures_roundtrip_bytes () =
    let pre_trailer =
      [ "overlap_aggregate.trace"; "publish_unpersisted.trace" ]
    in
    let fixtures =
      Sys.readdir "fixtures" |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".trace")
      |> List.sort String.compare
    in
    Alcotest.(check int) "fixture count" 10 (List.length fixtures);
    List.iter
      (fun f ->
        let path = Filename.concat "fixtures" f in
        let original = read_file path in
        let t = Trace.Trace_io.load path in
        let saved = v1_text t in
        with_string (v2_bytes t) (fun v2 ->
            Alcotest.(check string) (f ^ ": v2 re-save fingerprint")
              (Trace.Trace_io.fingerprint t)
              (Trace.Trace_io.fingerprint (Trace.Trace_io.load v2)));
        if List.mem f pre_trailer then begin
          let n = String.length original in
          Alcotest.(check bool) (f ^ ": original is a prefix") true
            (String.length saved > n && String.sub saved 0 n = original);
          Alcotest.(check string) (f ^ ": plus the trailer")
            (Printf.sprintf "# trailer events=%d fnv1a=%s\n"
               (Trace.Tracebuf.length t) (Trace.Trace_io.fingerprint t))
            (String.sub saved n (String.length saved - n))
        end
        else Alcotest.(check string) (f ^ ": bytes") original saved)
      fixtures

  (* The reader takes the file in chunks: a line longer than a chunk and
     a last line without its newline still load. *)
  let long_and_unterminated_lines () =
    let path = Filename.temp_file "hawkset" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let long =
          Trace.Site.v ~frames:[ String.make 200_000 'f'; "g" ] "a.ml" 3
        in
        let evs =
          List.concat_map
            (fun tid ->
              [ Trace.Event.Fence { tid; site = long };
                Trace.Event.Fence { tid; site = Trace.Site.v "b.ml" 4 } ])
            [ t0; t1; t0 ]
        in
        Trace.Trace_io.save path (Trace.Tracebuf.of_list evs);
        Alcotest.(check bool) "long lines round-trip" true
          (Trace.Tracebuf.to_list (Trace.Trace_io.load path) = evs);
        let oc = open_out path in
        output_string oc "# hawkset-trace 1\nM 0 a.ml:1\nM 1 b.ml:2";
        close_out oc;
        Alcotest.(check int) "unterminated last line" 2
          (Trace.Tracebuf.length (Trace.Trace_io.load path)))

  (* Loaded events share one [Site.t] per distinct site, from either
     format. *)
  let loaded_sites_shared () =
    let t = Trace.Tracebuf.of_list (sample_events @ sample_events) in
    List.iter
      (fun file ->
        with_string file (fun path ->
            Alcotest.(check bool) "equal sites are one value" true
              (sites_shared (Trace.Trace_io.load path))))
      [ v1_text t; v2_bytes t ]

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

  (* v2 by hand: a site is defined just before its first use, ints are
     LEB128 of their 63-bit pattern, and the trailer holds the count and
     the FNV-1a of the record bytes. *)
  let header2 = "# hawkset-trace 2\n"

  let le64 n =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 n;
    Bytes.to_string b

  let trailer ?hash ~events records =
    let h =
      match hash with
      | Some h -> h
      | None -> Trace.Journal.fnv_fold Trace.Journal.fnv_offset records
    in
    "T" ^ le64 (Int64.of_int events) ^ le64 h

  let v2_file ~events records = header2 ^ records ^ trailer ~events records

  let v2_layout () =
    let a = Trace.Site.v ~frames:[ "f"; "g" ] "a.ml" 7 in
    let evs =
      [
        Trace.Event.Thread_create { parent = t0; child = t1 };
        Trace.Event.Store
          { tid = t1; addr = 300; size = 8; site = a; non_temporal = false };
        Trace.Event.Fence { tid = t1; site = a };
        Trace.Event.Load
          { tid = t1; addr = -1; size = 8; site = Trace.Site.v "b.ml" 2 };
      ]
    in
    let expected =
      v2_file ~events:4
        ("C\x00\x01" ^ "@\x04a.ml\x07\x02\x01f\x01g"
        ^ "S\x01\xac\x02\x08\x00" ^ "M\x01\x00" ^ "@\x04b.ml\x02\x00"
        ^ "L\x01" ^ String.make 8 '\xff' ^ "\x7f\x08\x01")
    in
    Alcotest.(check string) "written bytes" expected
      (v2_bytes (Trace.Tracebuf.of_list evs));
    with_string expected (fun path ->
        Alcotest.(check bool) "read back" true
          (Trace.Tracebuf.to_list (Trace.Trace_io.load path) = evs))

  (* Every kind of malformed v2 input is a [Parse_error] at its record
     (counted from 1 after the header, site definitions included), and
     the tolerant reader salvages the events before it. *)
  let v2_malformed () =
    let site = "@\x04a.ml\x07\x00" and fence = "M\x00\x00" in
    let big = String.make 8 '\xff' ^ "\x7f" in
    let good = site ^ fence in
    let bad_hash =
      Int64.lognot (Trace.Journal.fnv_fold Trace.Journal.fnv_offset good)
    in
    (* name, file, strict error, salvaged events, tolerant first error
       and checksum *)
    let cases =
      [
        ("bad tag", header2 ^ "Z", (1, "unknown record tag 0x5a"), 0, true,
         `Absent);
        ("truncated varint", header2 ^ site ^ "M\x80", (2, "truncated record"),
         0, true, `Absent);
        ("over-long varint",
         header2 ^ site ^ "M" ^ String.make 9 '\x80' ^ "\x01\x00",
         (2, "over-long varint"), 0, true, `Absent);
        ("superfluous zero byte", header2 ^ site ^ "M\x80\x00\x00",
         (2, "over-long varint"), 0, true, `Absent);
        ("site before its definition", header2 ^ fence ^ site,
         (1, "site 0 used before its definition"), 0, true, `Absent);
        ("oversized thread id", header2 ^ site ^ "M" ^ big ^ "\x00",
         (2, "thread id out of range"), 0, true, `Absent);
        ("oversized lock id", header2 ^ site ^ "A\x00" ^ big ^ "\x00",
         (2, "lock id out of range"), 0, true, `Absent);
        ("oversized string", header2 ^ "@" ^ big,
         (1, "string length out of range"), 0, true, `Absent);
        ("truncated string", header2 ^ "@\x09a.ml", (1, "truncated record"),
         0, true, `Absent);
        ("count mismatch", header2 ^ good ^ trailer ~events:2 good,
         (3, "trailer event count mismatch: trailer says 2, trace has 1"), 1,
         false, `Mismatch);
        ("checksum mismatch",
         header2 ^ good ^ trailer ~hash:bad_hash ~events:1 good,
         ( 3,
           Printf.sprintf
             "trailer checksum mismatch: trailer says %016Lx, records hash \
              to %016Lx"
             bad_hash (Int64.lognot bad_hash) ),
         1, false, `Mismatch);
        ("missing trailer", header2 ^ good, (3, "missing trailer"), 1, false,
         `Absent);
        ("truncated trailer", header2 ^ good ^ "T\x01",
         (3, "truncated record"), 1, true, `Absent);
        ("data after trailer", v2_file ~events:1 good ^ "x",
         (4, "data after trailer"), 1, true, `Verified);
        ("corrupt record, intact trailer",
         header2 ^ site ^ "Z" ^ trailer ~events:1 good,
         (2, "unknown record tag 0x5a"), 0, true, `Mismatch);
        ("damaged header", "# hawkset-trace 2" ^ good,
         (1, "unknown trace format"), 0, true, `Absent);
      ]
    in
    List.iter
      (fun (name, file, err, salvaged, tolerant_err, checksum) ->
        with_string file (fun path ->
            (match Trace.Trace_io.load path with
            | _ -> Alcotest.failf "%s: expected a parse error" name
            | exception Trace.Trace_io.Parse_error (r, m) ->
                Alcotest.(check (pair int string)) name err (r, m));
            let t = Trace.Trace_io.load_tolerant path in
            Alcotest.(check int) (name ^ ": salvaged") salvaged
              t.Trace.Trace_io.salvaged_events;
            Alcotest.(check (option (pair int string))) (name ^ ": first error")
              (if tolerant_err then Some err else None)
              t.Trace.Trace_io.first_error;
            Alcotest.(check int) (name ^ ": dropped")
              (if tolerant_err then 1 else 0)
              t.Trace.Trace_io.dropped_lines;
            Alcotest.(check bool) (name ^ ": checksum") true
              (t.Trace.Trace_io.checksum = checksum)))
      cases

  (* A v2 file several 64 KiB chunks long: records and the trailer hash
     carry across chunk boundaries, and a cut deep in the file salvages
     every record before it. *)
  let v2_spans_chunks () =
    let sites =
      Array.init 50 (fun i -> Trace.Site.v ~frames:[ "f" ] "c.ml" i)
    in
    let evs =
      List.init 40_000 (fun i ->
          Trace.Event.Store
            { tid = Trace.Tid.of_int (i mod 7); addr = 4096 * i; size = 8;
              site = sites.(i mod 50); non_temporal = false })
    in
    let t = Trace.Tracebuf.of_list evs in
    let file = v2_bytes t in
    Alcotest.(check bool) "several chunks" true
      (String.length file > 3 * 65536);
    with_string file (fun path ->
        Alcotest.(check bool) "strict load" true
          (Trace.Tracebuf.to_list (Trace.Trace_io.load path) = evs));
    with_string (String.sub file 0 200_000) (fun path ->
        let t' = Trace.Trace_io.load_tolerant path in
        let n = t'.Trace.Trace_io.salvaged_events in
        Alcotest.(check bool) "a long prefix" true (n > 20_000);
        Alcotest.(check string) "the original's prefix"
          (Trace.Trace_io.fingerprint (Trace.Tracebuf.prefix t n))
          (Trace.Trace_io.fingerprint t'.Trace.Trace_io.salvaged))

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
      Alcotest.test_case "thread event field count" `Quick
        thread_event_field_count;
      Alcotest.test_case "event field count" `Quick event_field_count;
      Alcotest.test_case "negative ids are parse errors" `Quick negative_ids;
      Alcotest.test_case "fixtures round-trip byte for byte" `Quick
        fixtures_roundtrip_bytes;
      Alcotest.test_case "loaded sites are shared" `Quick loaded_sites_shared;
      Alcotest.test_case "long and unterminated lines" `Quick
        long_and_unterminated_lines;
      Alcotest.test_case "analysis survives roundtrip" `Quick
        analysis_survives_roundtrip;
      Alcotest.test_case "tolerant on zero-length file" `Quick
        (tolerant_degenerate "");
      Alcotest.test_case "tolerant on header-only file" `Quick
        (tolerant_degenerate "# hawkset-trace 1\n");
      Alcotest.test_case "v2 layout" `Quick v2_layout;
      Alcotest.test_case "v2 malformed records are located" `Quick v2_malformed;
      Alcotest.test_case "v2 spans chunks" `Quick v2_spans_chunks;
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

  (* The v1 properties run on v1 text, trailer included. *)
  let serialize evs = v1_text (Trace.Tracebuf.of_list evs)

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
    QCheck.Test.make ~name:"v1 text round-trips and verifies the trailer"
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

  (* ---- v2 ---- *)

  (* Traces over a small pool of sites (so sites repeat), with every
     event kind, multi-frame sites with any bytes in them, and tids,
     locks, addresses, sizes and lines across the whole int range. *)
  let gen_wide_trace =
    QCheck.Gen.(
      let id =
        oneof
          [ int_bound 3; int_bound (1 lsl 40); map (fun n -> n land max_int) int ]
      in
      let num =
        oneof [ int_bound 100_000; int; oneofl [ 0; -1; min_int; max_int ] ]
      in
      let text = string_size (int_bound 8) in
      let gen_site =
        map3
          (fun file line frames -> Trace.Site.v ~frames file line)
          (oneof [ oneofl [ "a.ml"; ""; "dir:odd.ml" ]; text ])
          num
          (list_size (int_bound 3) text)
      in
      list_size (int_range 1 5) gen_site >>= fun pool ->
      let site = oneofl pool and tid = map Trace.Tid.of_int id in
      let lock = map Trace.Lock_id.of_int id in
      list_size (int_bound 40)
        (oneof
           [
             map3
               (fun (tid, addr) (size, site) non_temporal ->
                 Trace.Event.Store { tid; addr; size; site; non_temporal })
               (pair tid num) (pair num site) bool;
             map3
               (fun tid (addr, size) site ->
                 Trace.Event.Load { tid; addr; size; site })
               tid (pair num num) site;
             map3
               (fun (tid, line) kind site ->
                 Trace.Event.Flush { tid; line; kind; site })
               (pair tid num)
               (oneofl Trace.Event.[ Clwb; Clflushopt; Clflush ])
               site;
             map2 (fun tid site -> Trace.Event.Fence { tid; site }) tid site;
             map3
               (fun (tid, lock) acquire site ->
                 if acquire then Trace.Event.Lock_acquire { tid; lock; site }
                 else Trace.Event.Lock_release { tid; lock; site })
               (pair tid lock) bool site;
             map3
               (fun a b create ->
                 if create then Trace.Event.Thread_create { parent = a; child = b }
                 else Trace.Event.Thread_join { waiter = a; joined = b })
               tid tid bool;
           ]))

  let arb_wide = QCheck.make gen_wide_trace

  let fp evs = Trace.Trace_io.fingerprint (Trace.Tracebuf.of_list evs)
  let take n evs = List.filteri (fun i _ -> i < n) evs

  (* The fixed-size v2 trailer. *)
  let trailer_size = 17

  let v2_roundtrip =
    QCheck.Test.make ~name:"v2 round-trips: same events, fingerprint, shared sites"
      ~count:300 arb_wide (fun evs ->
        let t = Trace.Tracebuf.of_list evs in
        with_string (v2_bytes t) (fun path ->
            let strict = Trace.Trace_io.load path in
            let tol = Trace.Trace_io.load_tolerant path in
            Trace.Tracebuf.to_list strict = evs
            && Trace.Trace_io.fingerprint strict = Trace.Trace_io.fingerprint t
            && sites_shared strict
            && Trace.Tracebuf.to_list tol.Trace.Trace_io.salvaged = evs
            && tol.Trace.Trace_io.checksum = `Verified
            && tol.Trace.Trace_io.dropped_lines = 0
            && tol.Trace.Trace_io.first_error = None))

  (* The writer is single-pass: the file of the first [j] events, less
     its trailer, is a prefix of the whole file. So a cut at byte [k]
     leaves exactly the events whose records end by [k], and the
     tolerant reader salvages exactly those. *)
  let v2_truncation =
    QCheck.Test.make ~name:"v2: truncation salvages exactly the complete records"
      ~count:200
      QCheck.(pair arb_wide (make Gen.(float_bound_inclusive 1.0)))
      (fun (evs, frac) ->
        let s = v2_bytes (Trace.Tracebuf.of_list evs) in
        let total = String.length s and n = List.length evs in
        let k = min total (int_of_float (frac *. float_of_int total)) in
        let body j =
          let b = v2_bytes (Trace.Tracebuf.of_list (take j evs)) in
          String.sub b 0 (String.length b - trailer_size)
        in
        with_string (String.sub s 0 k) (fun path ->
            let t = Trace.Trace_io.load_tolerant path in
            let got = t.Trace.Trace_io.salvaged_events in
            let whole = body got in
            got <= n
            && Trace.Trace_io.fingerprint t.Trace.Trace_io.salvaged
               = fp (take got evs)
            && (got = 0
               || String.length whole <= k
                  && String.sub s 0 (String.length whole) = whole)
            && (got = n || String.length (body (got + 1)) > k)
            && (if k = total then t.Trace.Trace_io.checksum = `Verified && got = n
                else t.Trace.Trace_io.checksum <> `Verified)
            &&
            match Trace.Trace_io.load path with
            | strict ->
                (k = total || k < String.length "# hawkset-trace 2\n")
                && Trace.Trace_io.fingerprint strict = fp (take got evs)
            | exception Trace.Trace_io.Parse_error _ -> k < total))

  (* A flipped byte: the strict reader raises [Parse_error] or returns
     what was written; the tolerant one never raises and salvages
     unchanged every event whose record ends before the flip. *)
  let v2_flip =
    QCheck.Test.make
      ~name:"v2: a flipped byte fails the strict load or changes nothing"
      ~count:300
      QCheck.(
        triple arb_wide
          (make Gen.(float_bound_exclusive 1.0))
          (make Gen.(int_range 1 255)))
      (fun (evs, frac, xor) ->
        let s = v2_bytes (Trace.Tracebuf.of_list evs) in
        let p = int_of_float (frac *. float_of_int (String.length s)) in
        let flipped = Bytes.of_string s in
        Bytes.set flipped p (Char.chr (Char.code s.[p] lxor xor));
        (* Events whose records end by [p]. *)
        let rec before j =
          if j < List.length evs
             && String.length (v2_bytes (Trace.Tracebuf.of_list (take (j + 1) evs)))
                - trailer_size <= p
          then before (j + 1)
          else j
        in
        let m = before 0 in
        with_string (Bytes.to_string flipped) (fun path ->
            (match Trace.Trace_io.load path with
            | strict -> Trace.Tracebuf.to_list strict = evs
            | exception Trace.Trace_io.Parse_error _ -> true)
            &&
            let t = Trace.Trace_io.load_tolerant path in
            let salvaged = Trace.Tracebuf.to_list t.Trace.Trace_io.salvaged in
            t.Trace.Trace_io.salvaged_events >= m
            && fp (take m salvaged) = fp (take m evs)
            && (t.Trace.Trace_io.checksum <> `Verified || salvaged = evs)))

  (* ---- the site table ---- *)

  let event_site = function
    | Trace.Event.Thread_create _ | Trace.Event.Thread_join _ -> None
    | Trace.Event.Store { site; _ } | Trace.Event.Load { site; _ }
    | Trace.Event.Flush { site; _ } | Trace.Event.Fence { site; _ }
    | Trace.Event.Lock_acquire { site; _ }
    | Trace.Event.Lock_release { site; _ } ->
        Some site

  (* The table's contract on [t]: event [i]'s id names a site equal to
     its own ([-1] for a thread event); the ids are dense, each of [0 ..
     site_count - 1] naming a site no other id names; and two events'
     sites are equal exactly when their ids are. *)
  let site_table_ok t =
    let module Tb = Trace.Tracebuf in
    let n = Tb.site_count t in
    let ids = List.init (Tb.length t) (Tb.site_id t) in
    let sites = List.map event_site (Tb.to_list t) in
    let pairs = List.combine ids sites in
    List.for_all
      (fun i ->
        List.for_all
          (fun j -> i = j || not (Trace.Site.equal (Tb.site t i) (Tb.site t j)))
          (List.init n Fun.id))
      (List.init n Fun.id)
    && List.for_all
         (function
           | id, None -> id = -1
           | id, Some s -> id >= 0 && id < n && Trace.Site.equal (Tb.site t id) s)
         pairs
    && List.for_all
         (fun (i, a) ->
           List.for_all
             (fun (j, b) ->
               match (a, b) with
               | Some a, Some b -> Trace.Site.equal a b = (i = j)
               | _ -> true)
             pairs)
         pairs

  (* ... and a prefix of any length keeps it, under the same ids. *)
  let prefixes_ok t =
    let module Tb = Trace.Tracebuf in
    List.for_all
      (fun k ->
        let p = Tb.prefix t k in
        site_table_ok p
        && Tb.site_count p = Tb.site_count t
        && List.for_all
             (fun i ->
               Tb.site_id p i = Tb.site_id t i
               && (Tb.site_id t i < 0
                  || Trace.Site.equal
                       (Tb.site p (Tb.site_id p i))
                       (Tb.site t (Tb.site_id t i))))
             (List.init (Tb.length p) Fun.id))
      (List.init (Tb.length t + 2) Fun.id)

  let table_ok t = site_table_ok t && prefixes_ok t

  (* Distinct values among [sites], structurally. *)
  let distinct sites =
    List.length (List.sort_uniq Trace.Site.compare sites)

  let site_table_built =
    QCheck.Test.make ~name:"site table: push and of_list" ~count:300 arb_wide
      (fun evs ->
        let pushed = Trace.Tracebuf.create ~capacity:1 () in
        List.iter (Trace.Tracebuf.push pushed) evs;
        let used = List.filter_map event_site evs in
        List.for_all
          (fun t ->
            table_ok t
            && Trace.Tracebuf.to_list t = evs
            && Trace.Tracebuf.site_count t = distinct used)
          [ pushed; Trace.Tracebuf.of_list evs ])

  (* v1 lines over a pool of three sites, each site spelled several
     ways: its line number plain, zero-padded or signed, and its frames
     after one space or several. *)
  let gen_v1_file =
    QCheck.Gen.(
      let pool =
        [| Trace.Site.v "a.ml" 7; Trace.Site.v ~frames:[ "f"; "g" ] "b.ml" 12;
           Trace.Site.v ~frames:[ "f" ] "a.ml" 7 |]
      in
      let spell (s : Trace.Site.t) v =
        let line =
          match v with
          | 0 -> string_of_int s.line
          | 1 -> "00" ^ string_of_int s.line
          | _ -> "+" ^ string_of_int s.line
        in
        let gap = if v = 1 then "   " else " " in
        s.file ^ ":" ^ line
        ^ match s.frames with [] -> "" | fs -> gap ^ String.concat ";" fs
      in
      list_size (int_range 1 30)
        (map3
           (fun kind p v ->
             let tail = spell pool.(p) v in
             ( (match kind with
               | 0 -> "S 1 64 8 0 " ^ tail
               | 1 -> "L 2 64 8 " ^ tail
               | 2 -> "M 1 " ^ tail
               | _ -> "C 0 1"),
               if kind = 3 then None else Some pool.(p) ))
           (int_bound 3) (int_bound 2) (int_bound 2)))

  let site_table_v1 =
    QCheck.Test.make ~name:"site table: v1, sites in several spellings"
      ~count:300
      (QCheck.make
         ~print:(fun ls -> String.concat "\n" (List.map fst ls))
         gen_v1_file)
      (fun lines ->
        with_string
          ("# hawkset-trace 1\n" ^ String.concat "\n" (List.map fst lines))
          (fun path ->
            let t = Trace.Trace_io.load path in
            let used = List.filter_map snd lines in
            table_ok t
            && List.map event_site (Trace.Tracebuf.to_list t) = List.map snd lines
            && Trace.Tracebuf.site_count t = distinct used))

  (* Hand-built v2 bytes: definitions of pool sites in any order, some
     defined twice and some never used, then events naming any
     definition. One byte holds each small int. *)
  let gen_v2_records =
    QCheck.Gen.(
      let pool =
        [| Trace.Site.v "a.ml" 7; Trace.Site.v ~frames:[ "f"; "g" ] "b.ml" 12;
           Trace.Site.v ~frames:[ "f" ] "a.ml" 7; Trace.Site.v "c.ml" 99 |]
      in
      list_size (int_range 1 8) (int_bound 3) >>= fun defs ->
      let ndefs = List.length defs in
      list_size (int_range 0 20) (pair (int_bound 2) (int_bound (ndefs - 1)))
      >>= fun uses ->
      let str s = String.make 1 (Char.chr (String.length s)) ^ s in
      let def p =
        let s = pool.(p) in
        "@" ^ str s.Trace.Site.file
        ^ String.make 1 (Char.chr s.Trace.Site.line)
        ^ String.make 1 (Char.chr (List.length s.Trace.Site.frames))
        ^ String.concat "" (List.map str s.Trace.Site.frames)
      in
      let record (kind, k) =
        let i = String.make 1 (Char.chr k) in
        match kind with
        | 0 -> ("S\x01\x40\x08" ^ i, Some pool.(List.nth defs k))
        | 1 -> ("M\x01" ^ i, Some pool.(List.nth defs k))
        | _ -> ("C\x00\x01", None)
      in
      let events = List.map record uses in
      return
        ( String.concat "" (List.map def defs) ^ String.concat "" (List.map fst events),
          List.length events,
          List.map snd events,
          distinct (List.map (Array.get pool) defs) ))

  let site_table_v2 =
    QCheck.Test.make
      ~name:"site table: v2, sites defined twice, unused and out of order"
      ~count:300 (QCheck.make gen_v2_records)
      (fun (records, events, sites, defined) ->
        with_string (Trace_io_tests.v2_file ~events records) (fun path ->
            let t = Trace.Trace_io.load path in
            table_ok t
            && List.map event_site (Trace.Tracebuf.to_list t) = sites
            && Trace.Tracebuf.site_count t = defined))

  let tests =
    [
      QCheck_alcotest.to_alcotest roundtrip_with_trailer;
      QCheck_alcotest.to_alcotest truncate_salvages_prefix;
      QCheck_alcotest.to_alcotest flip_is_caught;
      QCheck_alcotest.to_alcotest inject_malformed_line;
      QCheck_alcotest.to_alcotest fnv_matches_old_definition;
      QCheck_alcotest.to_alcotest v2_roundtrip;
      QCheck_alcotest.to_alcotest v2_truncation;
      QCheck_alcotest.to_alcotest v2_flip;
      QCheck_alcotest.to_alcotest site_table_built;
      QCheck_alcotest.to_alcotest site_table_v1;
      QCheck_alcotest.to_alcotest site_table_v2;
    ]
end

module Codec_diff_tests = struct
  (* The scanner codec against the split/Printf reference
     ([Trace_io_ref]): the same decoded events, fingerprints, strict
     results or errors, and tolerant reports, over generated traces
     written canonically and respelled. *)
  module Io = Trace.Trace_io
  module Ref = Trace_io_ref

  (* Any exception becomes a comparable value. *)
  let outcome f =
    match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

  let same_line_outcome line =
    outcome (fun () -> Io.event_of_line line)
    = outcome (fun () -> Ref.event_of_line line)

  let junk_lines_agree =
    QCheck.Test.make ~name:"malformed lines: same event or same error"
      ~count:500
      QCheck.(string_of_size (QCheck.Gen.int_bound 40))
      same_line_outcome

  (* Lines assembled from fragments both codecs treat specially, so that
     lines with several faults show which one is reported. *)
  let gen_token_line =
    QCheck.Gen.(
      map (String.concat " ")
        (list_size (int_bound 8)
           (oneofl
              [ "S"; "L"; "F"; "M"; "A"; "R"; "C"; "J"; "X"; "SS"; "0"; "1";
                "-1"; "+5"; "007"; "0x10"; "1_000"; "99999999999999999999";
                "x"; "clwb"; "clflushopt"; "clflush"; "a.ml:1"; "a:b.ml:2";
                "a.ml:x"; "nocolon"; ":3"; "f;g"; ";"; "\t"; "" ])))

  let token_lines_agree =
    QCheck.Test.make ~name:"token soup: same event or same error" ~count:1000
      (QCheck.make ~print:(Printf.sprintf "%S") gen_token_line)
      same_line_outcome

  (* Events the fuzz generators do not produce: file names with ':',
     frames with ';', non-temporal stores, every flush kind, negative
     addresses. *)
  let gen_odd_event =
    QCheck.Gen.(
      let tid = map Trace.Tid.of_int (int_bound 3) in
      let site =
        map3
          (fun file line frames -> Trace.Site.v ~frames file line)
          (oneofl [ "a.ml"; "dir:odd.ml"; "c:"; "<none>" ])
          (int_bound 2000)
          (oneofl [ []; [ "a;b" ]; [ "x"; "y;z" ]; [ "" ]; [ "f:1" ] ])
      in
      oneof
        [
          map3
            (fun tid (addr, non_temporal) site ->
              Trace.Event.Store { tid; addr; size = 8; site; non_temporal })
            tid
            (pair (int_range (-100) 100000) bool)
            site;
          map3
            (fun tid kind site ->
              Trace.Event.Flush { tid; line = 4096; kind; site })
            tid
            (oneofl Trace.Event.[ Clwb; Clflushopt; Clflush ])
            site;
          map2
            (fun parent child -> Trace.Event.Thread_create { parent; child })
            tid tid;
        ])

  let gen_trace =
    QCheck.Gen.(
      oneof
        [
          Check.Gen.gen ~max_events:40;
          map Trace.Tracebuf.of_list Fuzz_tests.gen_events;
          map Trace.Tracebuf.of_list (list_size (int_range 1 20) gen_odd_event);
        ])

  let respell_int rs n =
    let s = string_of_int n in
    match Random.State.int rs 6 with
    | 0 when n >= 0 -> "+" ^ s
    | 1 when n >= 0 -> "00" ^ s
    | 2 when n >= 0 -> Printf.sprintf "0x%x" n
    | 3 when n >= 10 ->
        String.sub s 0 1 ^ "_" ^ String.sub s 1 (String.length s - 1)
    | _ -> s

  (* The same line spelled differently: runs of spaces, blanks at the
     ends, integers (a site's line number too) as "+5", "007", "0x10" or
     "1_000", or a store's nt as 2. A line gets one of these, all of
     them, or none, so that each alone decides whether it is canonical. *)
  let respell rs line =
    let int_token tok =
      match int_of_string_opt tok with
      | Some n when string_of_int n = tok -> Some n
      | _ -> None
    in
    let respell_token tok =
      match int_token tok with
      | Some n -> respell_int rs n
      | None -> (
          match String.rindex_opt tok ':' with
          | Some c -> (
              let num = String.sub tok (c + 1) (String.length tok - c - 1) in
              match int_token num with
              | Some n -> String.sub tok 0 (c + 1) ^ respell_int rs n
              | None -> tok)
          | None -> tok)
    in
    let tokens = String.split_on_char ' ' line in
    let mode = Random.State.int rs 6 in
    let all = mode = 5 in
    let tokens =
      if all || mode = 3 then
        let k = 1 + Random.State.int rs (List.length tokens - 1) in
        List.mapi
          (fun i t -> if i > 0 && (all || i = k) then respell_token t else t)
          tokens
      else tokens
    in
    let tokens =
      if (all || mode = 4) && line.[0] = 'S' then
        List.mapi (fun i t -> if i = 4 && t = "1" then "2" else t) tokens
      else tokens
    in
    let sep () =
      if all || mode = 1 then String.make (1 + Random.State.int rs 3) ' '
      else " "
    in
    let blank () =
      if all || mode = 2 then
        List.nth [ ""; " "; "\t"; " \t " ] (Random.State.int rs 4)
      else ""
    in
    blank ()
    ^ List.fold_left
        (fun acc t -> if acc = "" then t else acc ^ sep () ^ t)
        "" tokens
    ^ blank ()

  (* A trace file: the header, every event line (respelled or not), at
     times a junk line or a comment among them, and a trailer that is
     right, absent, off by one event or malformed. *)
  let gen_file =
    QCheck.Gen.(
      map2
        (fun t rs ->
          let evs = Trace.Tracebuf.to_list t in
          let respelled = Random.State.bool rs in
          let lines =
            List.map
              (fun ev ->
                let l = Ref.event_to_line ev in
                if respelled then respell rs l else l)
              evs
          in
          let lines =
            match Random.State.int rs 4 with
            | 0 ->
                let k = Random.State.int rs (List.length lines + 1) in
                let junk =
                  (if Random.State.bool rs then gen_token_line rs
                   else
                     String.map
                       (fun c -> if c = '\n' then ' ' else c)
                       (QCheck.Gen.(string_size (int_bound 30)) rs))
                in
                List.filteri (fun i _ -> i < k) lines
                @ (junk :: List.filteri (fun i _ -> i >= k) lines)
            | 1 -> "" :: "# a comment" :: lines
            | _ -> lines
          in
          let n = List.length evs in
          let trailer events =
            [ Printf.sprintf "# trailer events=%d fnv1a=%s" events
                (Ref.fingerprint t) ]
          in
          let trailer =
            match Random.State.int rs 5 with
            | 0 -> []
            | 1 -> trailer (n + 1)
            | 2 -> [ "# trailer events=x" ]
            | _ -> trailer n
          in
          String.concat "\n" (("# hawkset-trace 1" :: lines) @ trailer) ^ "\n")
        gen_trace
        (fun rs -> Random.State.copy rs))

  let read_with read path =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic)

  let files_agree =
    QCheck.Test.make
      ~name:"respelled files: same events, errors, fingerprints and salvage"
      ~count:300
      (QCheck.make ~print:(fun s -> s) gen_file)
      (fun file ->
        with_string file (fun path ->
            let strict read =
              outcome (fun () ->
                  let t = read_with read path in
                  ( Trace.Tracebuf.to_list t,
                    Io.fingerprint t,
                    Ref.fingerprint t ))
            in
            let tolerant read =
              outcome (fun () ->
                  let t = read_with read path in
                  ( Trace.Tracebuf.to_list t.Io.salvaged,
                    t.Io.salvaged_events, t.Io.dropped_lines, t.Io.first_error,
                    t.Io.checksum ))
            in
            let fingerprints_agree =
              match strict Io.read with
              | Ok (_, a, b) -> a = b
              | Error _ -> true
            in
            strict Io.read = strict Ref.read
            && fingerprints_agree
            && tolerant Io.read_tolerant = tolerant Ref.read_tolerant))

  let encoders_agree =
    QCheck.Test.make ~name:"event_to_line and fingerprint equal the reference"
      ~count:300 (QCheck.make gen_trace) (fun t ->
        Io.fingerprint t = Ref.fingerprint t
        && List.for_all
             (fun ev -> Io.event_to_line ev = Ref.event_to_line ev)
             (Trace.Tracebuf.to_list t))

  let tests =
    List.map QCheck_alcotest.to_alcotest
      [ junk_lines_agree; token_lines_agree; files_agree; encoders_agree ]
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

  (* Insert churn over a key range far wider than the initial capacity,
     with periodic clear-and-refill, mirrored against a Hashtbl model:
     growth and a cleared table's reuse must never lose or resurrect a
     key. [key i] spreads the 2000 key indices. *)
  let set_churn_matches_model ~key () =
    let t = S.create ~size:8 () in
    let model = Hashtbl.create 64 in
    let rng = Random.State.make [| 7 |] in
    for step = 1 to 5_000 do
      if step mod 1_000 = 0 then begin
        Hashtbl.reset model;
        S.clear t
      end;
      let k = key (Random.State.int rng 2_000) in
      let fresh = not (Hashtbl.mem model k) in
      Hashtbl.replace model k ();
      Alcotest.(check bool) "add agrees with model" fresh (S.add t k)
    done;
    Alcotest.(check int) "length agrees" (Hashtbl.length model) (S.length t);
    for i = 0 to 1_999 do
      Alcotest.(check bool)
        (Printf.sprintf "mem %d agrees" (key i))
        (Hashtbl.mem model (key i)) (S.mem t (key i))
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
        (set_churn_matches_model ~key:Fun.id);
      (* Packed keys whose low fields agree: all their entropy is in the
         high half, which the hash must fold into the slot. *)
      Alcotest.test_case "set churn, keys differing only above bit 32"
        `Quick
        (set_churn_matches_model ~key:(fun i -> (i lsl 33) lor 5));
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
      ("codec_diff", Codec_diff_tests.tests);
    ]
