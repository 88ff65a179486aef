(* Spec differentials for the packed-int key representations: the
   collector's packed dedup keys (with their tuple-keyed spill tables for
   keys that do not fit) and the analysis's packed memo keys must be
   invisible — the production pipeline's report bytes equal the
   executable specification's ({!Hawkset.Reference}) on key-nasty random
   traces and on a trace wide enough to spill — and the packers
   themselves must be injective inside their field widths and refuse
   (spill / raise) outside them. *)

(* --- random traces ---------------------------------------------------- *)

(* A random-trace generator that is nasty for key packing: several
   threads, unaligned multi-byte accesses that straddle words (so one
   record registers under several dedup tables) and a wider site space. *)
module Gen = struct
  type op =
    | O_store of int * int * int (* addr, size, line *)
    | O_load of int * int * int
    | O_persist of int
    | O_locked of int * op list

  let rec gen_op depth =
    QCheck.Gen.(
      let addr = map (fun i -> 128 + i) (int_bound 60) in
      let size = int_range 1 12 in
      let leaf =
        frequency
          [
            (4, map3 (fun a s l -> O_store (a, s, l)) addr size (int_range 1 40));
            (4, map3 (fun a s l -> O_load (a, s, l)) addr size (int_range 41 80));
            (2, map (fun a -> O_persist a) addr);
          ]
      in
      if depth = 0 then leaf
      else
        frequency
          [
            (8, leaf);
            ( 2,
              map2
                (fun lock body -> O_locked (lock, body))
                (int_bound 3)
                (list_size (int_bound 4) (gen_op (depth - 1))) );
          ])

  let gen_script = QCheck.Gen.(list_size (int_range 1 14) (gen_op 2))

  let rec expand ~t ops =
    let tid = Trace.Tid.of_int t in
    let file = "pk.ml" in
    List.concat_map
      (fun op ->
        match op with
        | O_store (addr, size, l) ->
            [ Trace.Event.Store
                { tid; addr; size; site = Trace.Site.v file ((100 * t) + l);
                  non_temporal = false } ]
        | O_load (addr, size, l) ->
            [ Trace.Event.Load
                { tid; addr; size; site = Trace.Site.v file ((100 * t) + l) } ]
        | O_persist addr ->
            [ Trace.Event.Flush
                { tid; line = Pmem.Layout.line_of addr; kind = Trace.Event.Clwb;
                  site = Trace.Site.v file 0 };
              Trace.Event.Fence { tid; site = Trace.Site.v file 0 } ]
        | O_locked (lock, body) ->
            (Trace.Event.Lock_acquire
               { tid; lock = Trace.Lock_id.of_int lock;
                 site = Trace.Site.v file 0 }
            :: expand ~t body)
            @ [ Trace.Event.Lock_release
                  { tid; lock = Trace.Lock_id.of_int lock;
                    site = Trace.Site.v file 0 } ])
      ops

  let gen_trace =
    QCheck.Gen.(
      int_range 2 5 >>= fun nthreads ->
      list_repeat nthreads gen_script >>= fun scripts ->
      int >>= fun shuffle_seed ->
      let queues =
        List.mapi (fun i script -> ref (expand ~t:(i + 1) script)) scripts
      in
      let creates =
        List.init nthreads (fun i ->
            Trace.Event.Thread_create
              { parent = Trace.Tid.main; child = Trace.Tid.of_int (i + 1) })
      in
      let prng = Machine.Prng.create shuffle_seed in
      let out = ref (List.rev creates) in
      let rec drain () =
        let nonempty = List.filter (fun q -> !q <> []) queues in
        match nonempty with
        | [] -> ()
        | qs ->
            let q = List.nth qs (Machine.Prng.int prng (List.length qs)) in
            (match !q with
            | ev :: rest ->
                out := ev :: !out;
                q := rest
            | [] -> ());
            drain ()
      in
      drain ();
      let joins =
        List.init nthreads (fun i ->
            Trace.Event.Thread_join
              { waiter = Trace.Tid.main; joined = Trace.Tid.of_int (i + 1) })
      in
      return (Trace.Tracebuf.of_list (List.rev !out @ joins)))

  let arb_trace =
    QCheck.make
      ~print:(fun t ->
        String.concat "\n"
          (List.map Trace.Trace_io.event_to_line (Trace.Tracebuf.to_list t)))
      gen_trace
end

(* --- spec differentials ------------------------------------------------ *)

let spec_bytes ~config trace =
  Hawkset.Report.to_json
    (Hawkset.Reference.pipeline
       ~config:(Hawkset.Reference.config_of_pipeline config) trace)

let production_bytes ~config trace =
  Hawkset.Report.to_json
    (Hawkset.Pipeline.run ~config trace).Hawkset.Pipeline.races

module Spec_tests = struct
  let configs =
    let d = Hawkset.Pipeline.default in
    [
      ("default", d);
      ("no_irh", Hawkset.Pipeline.no_irh);
      ("eadr", { d with Hawkset.Pipeline.eadr = true });
      ("no-timestamps", { d with Hawkset.Pipeline.timestamps = false });
    ]

  (* Stages 1-3 with packed dedup and memo keys == the specification,
     byte for byte, under each semantic configuration. *)
  let pipeline (name, config) =
    QCheck.Test.make
      ~name:(Printf.sprintf "packed-key pipeline == spec (%s)" name)
      ~count:120 Gen.arb_trace
      (fun trace -> production_bytes ~config trace = spec_bytes ~config trace)

  (* Stage 3 alone on one collected result: the packed memo changes no
     verdict, witness or order. *)
  let memo =
    QCheck.Test.make ~name:"packed memo analysis == spec analysis" ~count:120
      Gen.arb_trace
      (fun trace ->
        let c = Hawkset.Collector.collect trace in
        Hawkset.Report.to_json (Hawkset.Analysis.run c).Hawkset.Analysis.report
        = Hawkset.Report.to_json (Hawkset.Reference.analyse c))

  let tests =
    List.map (fun c -> QCheck_alcotest.to_alcotest (pipeline c)) configs
    @ [ QCheck_alcotest.to_alcotest memo ]
end

(* --- the production spill path ----------------------------------------- *)

module Spill_tests = struct
  let nthreads = 600
  let high = 1 lsl Trace.Packed_key.tid_bits

  (* Every thread stores, persists and loads the same word twice with the
     same sites, so threads below [high] dedup through packed keys and
     threads at or above it through the spill tables — both in the same
     word cells, and the repeated accesses of a spilled thread must
     collapse to one record. *)
  let trace =
    let site l = Trace.Site.v "spill.ml" l in
    let addr = 256 in
    let per_thread t =
      let tid = Trace.Tid.of_int t in
      List.concat
        (List.init 2 (fun _ ->
             [
               Trace.Event.Store
                 { tid; addr; size = 8; site = site 1; non_temporal = false };
               Trace.Event.Flush
                 { tid; line = Pmem.Layout.line_of addr;
                   kind = Trace.Event.Clwb; site = site 2 };
               Trace.Event.Fence { tid; site = site 3 };
               Trace.Event.Load { tid; addr; size = 8; site = site 4 };
             ]))
    in
    let creates =
      List.init nthreads (fun i ->
          Trace.Event.Thread_create
            { parent = Trace.Tid.main; child = Trace.Tid.of_int (i + 1) })
    in
    let joins =
      List.init nthreads (fun i ->
          Trace.Event.Thread_join
            { waiter = Trace.Tid.main; joined = Trace.Tid.of_int (i + 1) })
    in
    Trace.Tracebuf.of_list
      (creates @ List.concat (List.init nthreads (fun i -> per_thread (i + 1)))
      @ joins)

  let spilled_keys_dedup () =
    let c = Hawkset.Collector.collect trace in
    let spilled_windows =
      List.filter
        (fun w -> w.Hawkset.Access.w_tid >= high)
        (Hawkset.Collector.all_windows c)
    and spilled_loads =
      List.filter
        (fun l -> l.Hawkset.Access.l_tid >= high)
        (Hawkset.Collector.all_loads c)
    in
    (* Threads [high .. nthreads], two identical accesses each. *)
    let spilled_threads = nthreads - high + 1 in
    Alcotest.(check int)
      "one window per spilled thread" spilled_threads
      (List.length spilled_windows);
    Alcotest.(check int)
      "one load per spilled thread" spilled_threads
      (List.length spilled_loads);
    let config = Hawkset.Pipeline.default in
    let races = (Hawkset.Pipeline.run ~config trace).Hawkset.Pipeline.races in
    Alcotest.(check bool) "the spilled trace races" true
      (Hawkset.Report.count races > 0);
    Alcotest.(check string)
      "pipeline == spec" (spec_bytes ~config trace)
      (production_bytes ~config trace)

  (* Site ids are the trace's, flush, fence and lock sites counted: a
     trace whose first [2^site_bits + 2] distinct sites are on flushes
     gives its stores and loads ids past [site_bits]. The flushes all
     precede any store, on a line nothing touches, so they only tick
     the flushing thread's clock; the same trace with one site on every
     flush (so its access sites get low ids) must report the same. *)
  let wide_sites_trace ~wide =
    let nflush = (1 lsl Trace.Packed_key.site_bits) + 2 in
    let site l = Trace.Site.v "spill.ml" l in
    let addr = 256 in
    let flushes =
      List.init nflush (fun i ->
          Trace.Event.Flush
            { tid = Trace.Tid.main; line = 1 lsl 20; kind = Trace.Event.Clwb;
              site = Trace.Site.v "flush.ml" (if wide then i else 0) })
    in
    (* Each thread stores twice at the same site, persists, stores again
       unpersisted, and loads twice at the same site. *)
    let per_thread t =
      let tid = Trace.Tid.of_int t in
      let store =
        Trace.Event.Store
          { tid; addr; size = 8; site = site t; non_temporal = false }
      in
      let load = Trace.Event.Load { tid; addr; size = 8; site = site (10 + t) } in
      [ store; store;
        Trace.Event.Flush
          { tid; line = Pmem.Layout.line_of addr; kind = Trace.Event.Clwb;
            site = site 20 };
        Trace.Event.Fence { tid; site = site 21 };
        store; load; load ]
    in
    let threads = [ 1; 2; 3 ] in
    Trace.Tracebuf.of_list
      (flushes
      @ List.map
          (fun t ->
            Trace.Event.Thread_create
              { parent = Trace.Tid.main; child = Trace.Tid.of_int t })
          threads
      @ List.concat_map per_thread threads
      @ List.map
          (fun t ->
            Trace.Event.Thread_join
              { waiter = Trace.Tid.main; joined = Trace.Tid.of_int t })
          threads)

  let wide_site_ids () =
    let wide = wide_sites_trace ~wide:true
    and low = wide_sites_trace ~wide:false in
    let first_access t =
      let rec go i =
        match Trace.Tracebuf.get t i with
        | Trace.Event.Store _ -> Trace.Tracebuf.site_id t i
        | _ -> go (i + 1)
      in
      go 0
    in
    Alcotest.(check bool) "access site ids exceed site_bits" false
      (Trace.Packed_key.fits (first_access wide) Trace.Packed_key.site_bits);
    Alcotest.(check bool) "low-id access site ids fit" true
      (Trace.Packed_key.fits (first_access low) Trace.Packed_key.site_bits);
    let records t =
      let c = Hawkset.Collector.collect t in
      ( List.length (Hawkset.Collector.all_windows c),
        List.length (Hawkset.Collector.all_loads c) )
    in
    Alcotest.(check (pair int int)) "spilled keys dedup as packed ones"
      (records low) (records wide);
    let config = Hawkset.Pipeline.default in
    let races = (Hawkset.Pipeline.run ~config wide).Hawkset.Pipeline.races in
    Alcotest.(check bool) "the wide trace races" true
      (Hawkset.Report.count races > 0);
    Alcotest.(check string) "pipeline == spec" (spec_bytes ~config wide)
      (production_bytes ~config wide);
    Alcotest.(check string) "wide ids == low ids" (production_bytes ~config low)
      (production_bytes ~config wide)

  let tests =
    [
      Alcotest.test_case "tid >= 2^tid_bits spills and dedups" `Quick
        spilled_keys_dedup;
      Alcotest.test_case "site id >= 2^site_bits spills and dedups" `Quick
        wide_site_ids;
    ]
end

(* --- the packers themselves ------------------------------------------- *)

module Key_tests = struct
  module P = Trace.Packed_key

  let wmax bits = (1 lsl bits) - 1

  let window_boundaries () =
    let k ~tid ~site ~eff ~vec ~evec ~kind =
      P.window_key ~tid ~site ~eff ~vec ~evec ~kind
    in
    let all_max =
      k ~tid:(wmax P.tid_bits) ~site:(wmax P.site_bits) ~eff:(wmax P.ls_bits)
        ~vec:(wmax P.vc_bits) ~evec:(wmax P.vc_bits) ~kind:(wmax P.kind_bits)
    in
    Alcotest.(check bool) "all fields at width limit fit" true (all_max >= 0);
    Alcotest.(check bool) "zero key fits" true
      (k ~tid:0 ~site:0 ~eff:0 ~vec:0 ~evec:0 ~kind:0 >= 0);
    (* One past each field's limit must refuse, not wrap into a
       neighbouring key. *)
    List.iter
      (fun (name, key) ->
        Alcotest.(check int) (name ^ " overflows to unfit") P.unfit key)
      [
        ("tid", k ~tid:(1 lsl P.tid_bits) ~site:0 ~eff:0 ~vec:0 ~evec:0 ~kind:0);
        ( "site",
          k ~tid:0 ~site:(1 lsl P.site_bits) ~eff:0 ~vec:0 ~evec:0 ~kind:0 );
        ("eff", k ~tid:0 ~site:0 ~eff:(1 lsl P.ls_bits) ~vec:0 ~evec:0 ~kind:0);
        ("vec", k ~tid:0 ~site:0 ~eff:0 ~vec:(1 lsl P.vc_bits) ~evec:0 ~kind:0);
        ( "evec",
          k ~tid:0 ~site:0 ~eff:0 ~vec:0 ~evec:(1 lsl P.vc_bits) ~kind:0 );
        ( "kind",
          k ~tid:0 ~site:0 ~eff:0 ~vec:0 ~evec:0 ~kind:(1 lsl P.kind_bits) );
        ("negative", k ~tid:(-1) ~site:0 ~eff:0 ~vec:0 ~evec:0 ~kind:0);
      ]

  let load_boundaries () =
    Alcotest.(check bool) "max load key fits" true
      (P.load_key ~tid:(wmax P.tid_bits) ~site:(wmax P.site_bits)
         ~ls:(wmax P.ls_bits) ~vec:(wmax P.vc_bits)
      >= 0);
    Alcotest.(check int) "site overflow unfit" P.unfit
      (P.load_key ~tid:0 ~site:(1 lsl P.site_bits) ~ls:0 ~vec:0);
    Alcotest.(check int) "negative unfit" P.unfit
      (P.load_key ~tid:0 ~site:0 ~ls:(-3) ~vec:0)

  (* Injectivity: distinct in-range field tuples give distinct keys.
     Exercises every field at both ends of its range plus random
     interiors. *)
  let window_injective =
    let field bits =
      QCheck.Gen.(
        frequency [ (1, return 0); (1, return (wmax bits)); (4, int_bound (wmax bits)) ])
    in
    let gen_fields =
      QCheck.Gen.(
        map (fun (tid, site, eff, (vec, evec, kind)) -> (tid, site, eff, vec, evec, kind))
          (quad (field Trace.Packed_key.tid_bits)
             (field Trace.Packed_key.site_bits)
             (field Trace.Packed_key.ls_bits)
             (triple (field Trace.Packed_key.vc_bits)
                (field Trace.Packed_key.vc_bits)
                (field Trace.Packed_key.kind_bits))))
    in
    QCheck.Test.make ~name:"window_key is injective in range" ~count:500
      QCheck.(make (QCheck.Gen.pair gen_fields gen_fields))
      (fun (a, b) ->
        let key (tid, site, eff, vec, evec, kind) =
          P.window_key ~tid ~site ~eff ~vec ~evec ~kind
        in
        key a >= 0 && key b >= 0 && key a = key b = (a = b))

  let pair_properties () =
    Alcotest.(check bool) "max pair fits" true
      (P.pair P.pair_max P.pair_max >= 0);
    Alcotest.(check bool) "pair (0,0)" true (P.pair 0 0 = 0);
    Alcotest.check_raises "a over 31 bits raises"
      (Invalid_argument "Packed_key.pair: component exceeds 31 bits")
      (fun () -> ignore (P.pair (P.pair_max + 1) 0));
    Alcotest.check_raises "negative raises"
      (Invalid_argument "Packed_key.pair: component exceeds 31 bits")
      (fun () -> ignore (P.pair 0 (-1)))

  let pair_injective =
    QCheck.Test.make ~name:"pair is injective" ~count:500
      QCheck.(
        pair
          (pair (int_bound 1_000_000) (int_bound 1_000_000))
          (pair (int_bound 1_000_000) (int_bound 1_000_000)))
      (fun ((a1, b1), (a2, b2)) ->
        P.pair a1 b1 = P.pair a2 b2 = (a1 = a2 && b1 = b2))

  let tests =
    [
      Alcotest.test_case "window_key boundaries" `Quick window_boundaries;
      Alcotest.test_case "load_key boundaries" `Quick load_boundaries;
      QCheck_alcotest.to_alcotest window_injective;
      Alcotest.test_case "pair boundaries" `Quick pair_properties;
      QCheck_alcotest.to_alcotest pair_injective;
    ]
end

let () =
  Alcotest.run "packed_keys"
    [
      ("spec differential", Spec_tests.tests);
      ("spill path", Spill_tests.tests);
      ("packers", Key_tests.tests);
    ]
