(* Differential tests for the packed-int key representations: the packed
   collector dedup ([`Packed] vs the tuple-keyed [`Tuple] reference path)
   and the packed analysis memo must be invisible — byte-identical
   records, reports, stats and counter snapshots on random traces — and
   the packers themselves must be injective inside their field widths and
   refuse (spill / raise) outside them. *)

let with_counters f =
  Obs.Registry.reset Obs.Registry.global;
  let x = f () in
  (x, Obs.Registry.counters Obs.Registry.global)

(* --- random traces ---------------------------------------------------- *)

(* Like test_par_analysis's generator but nastier for key packing: more
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

(* --- collector dedup differential ------------------------------------- *)

module Collect_tests = struct
  let same_result (a : Hawkset.Collector.result) (b : Hawkset.Collector.result)
      =
    a.Hawkset.Collector.words = b.Hawkset.Collector.words
    && a.Hawkset.Collector.slots = b.Hawkset.Collector.slots
    && a.Hawkset.Collector.windows_of = b.Hawkset.Collector.windows_of
    && a.Hawkset.Collector.loads_of = b.Hawkset.Collector.loads_of
    && a.Hawkset.Collector.stats = b.Hawkset.Collector.stats

  (* The tentpole property for stage 1-2: packed dedup keys change
     nothing — same records in the same order, same stats, same counter
     snapshot, and downstream the same report. *)
  let differential irh =
    QCheck.Test.make
      ~name:(Printf.sprintf "packed dedup == tuple dedup (irh=%b)" irh)
      ~count:120 Gen.arb_trace
      (fun trace ->
        let (packed, packed_report), packed_counters =
          with_counters (fun () ->
              let c = Hawkset.Collector.collect ~irh ~dedup:`Packed trace in
              (c, (Hawkset.Analysis.run c).Hawkset.Analysis.report))
        in
        let (tuple, tuple_report), tuple_counters =
          with_counters (fun () ->
              let c = Hawkset.Collector.collect ~irh ~dedup:`Tuple trace in
              (c, (Hawkset.Analysis.run c).Hawkset.Analysis.report))
        in
        same_result packed tuple
        && Hawkset.Report.to_json packed_report
           = Hawkset.Report.to_json tuple_report
        && packed_counters = tuple_counters)

  let eadr_and_ablation =
    QCheck.Test.make ~name:"packed == tuple under eadr / no-timestamps"
      ~count:40 Gen.arb_trace
      (fun trace ->
        List.for_all
          (fun (eadr, timestamps) ->
            let c d =
              Hawkset.Collector.collect ~eadr ~timestamps ~dedup:d trace
            in
            same_result (c `Packed) (c `Tuple))
          [ (true, true); (false, false) ])

  let tests =
    [
      QCheck_alcotest.to_alcotest (differential false);
      QCheck_alcotest.to_alcotest (differential true);
      QCheck_alcotest.to_alcotest eadr_and_ablation;
    ]
end

(* --- analysis memo differential --------------------------------------- *)

module Memo_tests = struct
  (* Packed memo keys change neither the outcome nor any counter. *)
  let differential =
    QCheck.Test.make ~name:"packed memo == tuple memo"
      ~count:120 Gen.arb_trace
      (fun trace ->
        let c = Hawkset.Collector.collect trace in
        let packed, packed_counters =
          with_counters (fun () -> Hawkset.Analysis.run ~memo_impl:`Packed c)
        in
        let tuple, tuple_counters =
          with_counters (fun () -> Hawkset.Analysis.run ~memo_impl:`Tuple c)
        in
        Hawkset.Report.to_json packed.Hawkset.Analysis.report
        = Hawkset.Report.to_json tuple.Hawkset.Analysis.report
        && packed.Hawkset.Analysis.pairs = tuple.Hawkset.Analysis.pairs
        && packed_counters = tuple_counters)

  let tests = [ QCheck_alcotest.to_alcotest differential ]
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
      ("collector dedup", Collect_tests.tests);
      ("analysis memo", Memo_tests.tests);
      ("packers", Key_tests.tests);
    ]
