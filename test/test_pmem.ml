(* Tests for the PM heap and worst-case cache simulator: persistence only
   via flush+fence, crash images, non-temporal stores, allocator reuse. *)

let tid n = Trace.Tid.of_int n
let t0 = tid 0
let t1 = tid 1

let mk ?(size = 1 lsl 16) () = Pmem.Heap.create ~size ()

module Layout_tests = struct
  let line_of () =
    Alcotest.(check int) "0" 0 (Pmem.Layout.line_of 63);
    Alcotest.(check int) "64" 64 (Pmem.Layout.line_of 64);
    Alcotest.(check int) "128" 128 (Pmem.Layout.line_of 191)

  let lines_of_range () =
    Alcotest.(check (list int)) "within one line" [ 0 ]
      (Pmem.Layout.lines_of_range 8 8);
    Alcotest.(check (list int)) "crossing" [ 0; 64 ]
      (Pmem.Layout.lines_of_range 60 8);
    Alcotest.(check (list int)) "empty" [] (Pmem.Layout.lines_of_range 10 0);
    Alcotest.(check (list int)) "three lines" [ 64; 128; 192 ]
      (Pmem.Layout.lines_of_range 64 129)

  let words_of_range () =
    Alcotest.(check (list int)) "one word" [ 2 ]
      (Pmem.Layout.words_of_range 16 8);
    Alcotest.(check (list int)) "straddle" [ 0; 1 ]
      (Pmem.Layout.words_of_range 4 8)

  let iter_words_cases () =
    let collect addr size =
      let acc = ref [] in
      Pmem.Layout.iter_words addr size (fun w -> acc := w :: !acc);
      List.rev !acc
    in
    Alcotest.(check (list int)) "one word" [ 2 ] (collect 16 8);
    Alcotest.(check (list int)) "straddle" [ 0; 1 ] (collect 4 8);
    Alcotest.(check (list int)) "empty" [] (collect 10 0);
    Alcotest.(check int) "fold count" 2
      (Pmem.Layout.fold_words 4 8 0 (fun n _ -> n + 1));
    Alcotest.(check int) "fold empty" 7
      (Pmem.Layout.fold_words 10 0 7 (fun n _ -> n + 1))

  let iter_words_matches_list =
    QCheck.Test.make ~name:"iter_words = words_of_range" ~count:500
      QCheck.(pair small_nat small_nat)
      (fun (addr, size) ->
        let acc = ref [] in
        Pmem.Layout.iter_words addr size (fun w -> acc := w :: !acc);
        List.rev !acc = Pmem.Layout.words_of_range addr size
        && Pmem.Layout.fold_words addr size [] (fun l w -> w :: l) = !acc)

  let overlap () =
    Alcotest.(check bool) "disjoint" false
      (Pmem.Layout.ranges_overlap 0 8 8 8);
    Alcotest.(check bool) "partial" true
      (Pmem.Layout.ranges_overlap 0 9 8 8);
    Alcotest.(check bool) "contained" true
      (Pmem.Layout.ranges_overlap 0 64 16 4);
    Alcotest.(check bool) "zero size" false
      (Pmem.Layout.ranges_overlap 0 0 0 8)

  let overlap_symmetric =
    QCheck.Test.make ~name:"range overlap is symmetric" ~count:500
      QCheck.(quad small_nat small_nat small_nat small_nat)
      (fun (a1, s1, a2, s2) ->
        Pmem.Layout.ranges_overlap a1 s1 a2 s2
        = Pmem.Layout.ranges_overlap a2 s2 a1 s1)

  let tests =
    [
      Alcotest.test_case "line_of" `Quick line_of;
      Alcotest.test_case "lines_of_range" `Quick lines_of_range;
      Alcotest.test_case "words_of_range" `Quick words_of_range;
      Alcotest.test_case "iter_words" `Quick iter_words_cases;
      QCheck_alcotest.to_alcotest iter_words_matches_list;
      Alcotest.test_case "ranges_overlap" `Quick overlap;
      QCheck_alcotest.to_alcotest overlap_symmetric;
    ]
end

module Alloc_tests = struct
  let alignment () =
    let h = mk () in
    let a = Pmem.Heap.alloc ~align:64 h 100 in
    Alcotest.(check int) "aligned" 0 (a mod 64);
    let b = Pmem.Heap.alloc h 8 in
    Alcotest.(check bool) "disjoint" true (b >= a + 100)

  let null_page_reserved () =
    let h = mk () in
    let a = Pmem.Heap.alloc h 8 in
    Alcotest.(check bool) "address 0 never allocated" true (a > 0)

  let reuse_lifo () =
    let h = mk () in
    let a = Pmem.Heap.alloc h 32 in
    let b = Pmem.Heap.alloc h 32 in
    Pmem.Heap.free h ~addr:a ~size:32;
    Pmem.Heap.free h ~addr:b ~size:32;
    Alcotest.(check int) "most recently freed first" b (Pmem.Heap.alloc h 32);
    Alcotest.(check int) "then the other" a (Pmem.Heap.alloc h 32)

  let reuse_keeps_contents () =
    let h = mk () in
    let a = Pmem.Heap.alloc h 8 in
    Pmem.Heap.write_i64 h a 0xDEADL;
    Pmem.Heap.free h ~addr:a ~size:8;
    let b = Pmem.Heap.alloc h 8 in
    Alcotest.(check int) "same block" a b;
    Alcotest.(check int64) "old contents visible" 0xDEADL
      (Pmem.Heap.read_i64 h b)

  let out_of_memory () =
    let h = Pmem.Heap.create ~size:256 () in
    Alcotest.check_raises "oom" Out_of_memory (fun () ->
        ignore (Pmem.Heap.alloc h 1024))

  let bad_args () =
    let h = mk () in
    Alcotest.check_raises "size" (Invalid_argument "Heap.alloc: non-positive size")
      (fun () -> ignore (Pmem.Heap.alloc h 0));
    Alcotest.check_raises "align"
      (Invalid_argument "Heap.alloc: alignment must be a power of two")
      (fun () -> ignore (Pmem.Heap.alloc ~align:3 h 8))

  let tests =
    [
      Alcotest.test_case "alignment" `Quick alignment;
      Alcotest.test_case "null page reserved" `Quick null_page_reserved;
      Alcotest.test_case "LIFO reuse" `Quick reuse_lifo;
      Alcotest.test_case "reuse keeps contents" `Quick reuse_keeps_contents;
      Alcotest.test_case "out of memory" `Quick out_of_memory;
      Alcotest.test_case "bad arguments" `Quick bad_args;
    ]
end

module Persistence_tests = struct
  let store h ?(tid = t0) ?(nt = false) addr v =
    Pmem.Heap.write_i64 h addr v;
    Pmem.Heap.note_store h ~tid ~addr ~size:8 ~non_temporal:nt

  let persist h ?(tid = t0) addr =
    Pmem.Heap.flush h ~tid ~line:(Pmem.Layout.line_of addr);
    Pmem.Heap.fence h ~tid

  let store_alone_not_persistent () =
    let h = mk () in
    store h 128 42L;
    Alcotest.(check bool) "dirty" false
      (Pmem.Heap.persisted_range h ~addr:128 ~size:8);
    Alcotest.(check int64) "visible" 42L (Pmem.Heap.read_i64 h 128);
    Alcotest.(check int64) "not in crash image" 0L
      (Bytes.get_int64_le (Pmem.Heap.crash_image h) 128)

  let flush_without_fence_not_persistent () =
    let h = mk () in
    store h 128 42L;
    Pmem.Heap.flush h ~tid:t0 ~line:128;
    Alcotest.(check bool) "still not guaranteed" false
      (Pmem.Heap.persisted_range h ~addr:128 ~size:8);
    Alcotest.(check int64) "crash loses it" 0L
      (Bytes.get_int64_le (Pmem.Heap.crash_image h) 128)

  let fence_without_flush_not_persistent () =
    let h = mk () in
    store h 128 42L;
    Pmem.Heap.fence h ~tid:t0;
    Alcotest.(check bool) "still dirty" false
      (Pmem.Heap.persisted_range h ~addr:128 ~size:8)

  let flush_plus_fence_persists () =
    let h = mk () in
    store h 128 42L;
    persist h 128;
    Alcotest.(check bool) "persisted" true
      (Pmem.Heap.persisted_range h ~addr:128 ~size:8);
    Alcotest.(check int64) "in crash image" 42L
      (Bytes.get_int64_le (Pmem.Heap.crash_image h) 128)

  let fence_by_other_thread_does_not_complete () =
    let h = mk () in
    store h 128 42L;
    Pmem.Heap.flush h ~tid:t0 ~line:128;
    Pmem.Heap.fence h ~tid:t1;
    (* Worst case: T1's sfence does not order T0's pending flush. *)
    Alcotest.(check bool) "not persisted" false
      (Pmem.Heap.persisted_range h ~addr:128 ~size:8)

  let store_after_flush_redirties () =
    let h = mk () in
    store h 128 1L;
    Pmem.Heap.flush h ~tid:t0 ~line:128;
    store h 136 2L (* same line, after the flush *);
    Pmem.Heap.fence h ~tid:t0;
    (* The flushed snapshot persisted (value 1), but the newer store is
       not covered by that flush. *)
    let img = Pmem.Heap.crash_image h in
    Alcotest.(check int64) "snapshot persisted" 1L (Bytes.get_int64_le img 128);
    Alcotest.(check int64) "late store lost" 0L (Bytes.get_int64_le img 136);
    Alcotest.(check bool) "line still dirty" false
      (Pmem.Heap.persisted_range h ~addr:136 ~size:8)

  (* T1 flushes an old snapshot of the line; T0 then stores, flushes and
     fences newer data; T1's late fence must not roll the durable line
     back to its stale snapshot. *)
  let stale_snapshot_never_overwrites () =
    let h = mk () in
    store h ~tid:t1 128 1L;
    Pmem.Heap.flush h ~tid:t1 ~line:128;
    store h ~tid:t0 136 2L;
    persist h ~tid:t0 136;
    Pmem.Heap.fence h ~tid:t1;
    let img = Pmem.Heap.crash_image h in
    Alcotest.(check int64) "T1's store persisted" 1L (Bytes.get_int64_le img 128);
    Alcotest.(check int64) "T0's fenced store survives" 2L
      (Bytes.get_int64_le img 136);
    Alcotest.(check bool) "line clean" true
      (Pmem.Heap.persisted_range h ~addr:128 ~size:64)

  let flush_clean_line_noop () =
    let h = mk () in
    Pmem.Heap.flush h ~tid:t0 ~line:0;
    Pmem.Heap.fence h ~tid:t0;
    Alcotest.(check int) "no dirty lines" 0 (Pmem.Heap.dirty_lines h)

  let unaligned_flush_rejected () =
    let h = mk () in
    Alcotest.check_raises "unaligned"
      (Invalid_argument "Heap.flush: address is not line-aligned") (fun () ->
        Pmem.Heap.flush h ~tid:t0 ~line:12)

  let nt_store_persists_on_fence () =
    let h = mk () in
    store h ~nt:true 128 7L;
    Alcotest.(check bool) "before fence: not guaranteed" false
      (Pmem.Heap.persisted_range h ~addr:128 ~size:8);
    Pmem.Heap.fence h ~tid:t0;
    Alcotest.(check bool) "after fence: persisted, no flush needed" true
      (Pmem.Heap.persisted_range h ~addr:128 ~size:8);
    Alcotest.(check int64) "crash image" 7L
      (Bytes.get_int64_le (Pmem.Heap.crash_image h) 128)

  let nt_fence_by_other_thread () =
    let h = mk () in
    store h ~nt:true ~tid:t1 128 7L;
    Pmem.Heap.fence h ~tid:t0;
    Alcotest.(check bool) "other thread's fence does not drain" false
      (Pmem.Heap.persisted_range h ~addr:128 ~size:8)

  let dirty_conflict_detection () =
    let h = mk () in
    store h ~tid:t0 128 1L;
    (match Pmem.Heap.dirty_conflict h ~tid:t1 ~addr:128 ~size:8 with
    | Some w -> Alcotest.(check int) "writer is T0" 0 (Trace.Tid.to_int w)
    | None -> Alcotest.fail "expected conflict");
    Alcotest.(check bool) "own store: no conflict" true
      (Pmem.Heap.dirty_conflict h ~tid:t0 ~addr:128 ~size:8 = None);
    persist h 128;
    Alcotest.(check bool) "persisted: no conflict" true
      (Pmem.Heap.dirty_conflict h ~tid:t1 ~addr:128 ~size:8 = None)

  let crash_image_prefix_consistency =
    QCheck.Test.make
      ~name:"crash image holds the last flushed+fenced value per word"
      ~count:100
      QCheck.(small_list (pair (int_bound 62) (int_bound 1000)))
      (fun writes ->
        let h = Pmem.Heap.create ~size:(1 lsl 12) () in
        (* Track our own model of the persistent value per word. *)
        let model = Hashtbl.create 16 in
        List.iter
          (fun (word, v) ->
            let addr = word * 8 in
            let v = Int64.of_int v in
            Pmem.Heap.write_i64 h addr v;
            Pmem.Heap.note_store h ~tid:t0 ~addr ~size:8 ~non_temporal:false;
            if v <> 0L && Int64.to_int v mod 2 = 0 then begin
              Pmem.Heap.flush h ~tid:t0 ~line:(Pmem.Layout.line_of addr);
              Pmem.Heap.fence h ~tid:t0;
              (* The fence persisted whole lines: every word of that line
                 takes its current volatile value in the model. *)
              let base = Pmem.Layout.line_of addr in
              for w = 0 to (Pmem.Layout.line_size / 8) - 1 do
                Hashtbl.replace model
                  ((base / 8) + w)
                  (Pmem.Heap.read_i64 h (base + (w * 8)))
              done
            end)
          writes;
        let img = Pmem.Heap.crash_image h in
        Hashtbl.fold
          (fun word v ok ->
            ok && Bytes.get_int64_le img (word * 8) = v)
          model true)

  let of_image_roundtrip () =
    let h = mk () in
    store h 128 9L;
    persist h 128;
    store h 256 5L (* unpersisted *);
    let h' = Pmem.Heap.of_image (Pmem.Heap.crash_image h) in
    Alcotest.(check int64) "persisted survives" 9L (Pmem.Heap.read_i64 h' 128);
    Alcotest.(check int64) "unpersisted lost" 0L (Pmem.Heap.read_i64 h' 256);
    Alcotest.(check int) "clean cache" 0 (Pmem.Heap.dirty_lines h')

  let tests =
    [
      Alcotest.test_case "store alone is volatile" `Quick
        store_alone_not_persistent;
      Alcotest.test_case "flush without fence" `Quick
        flush_without_fence_not_persistent;
      Alcotest.test_case "fence without flush" `Quick
        fence_without_flush_not_persistent;
      Alcotest.test_case "flush+fence persists" `Quick flush_plus_fence_persists;
      Alcotest.test_case "cross-thread fence" `Quick
        fence_by_other_thread_does_not_complete;
      Alcotest.test_case "store after flush re-dirties" `Quick
        store_after_flush_redirties;
      Alcotest.test_case "stale snapshot never overwrites" `Quick
        stale_snapshot_never_overwrites;
      Alcotest.test_case "flush of clean line" `Quick flush_clean_line_noop;
      Alcotest.test_case "unaligned flush rejected" `Quick
        unaligned_flush_rejected;
      Alcotest.test_case "non-temporal store" `Quick nt_store_persists_on_fence;
      Alcotest.test_case "nt store, other thread's fence" `Quick
        nt_fence_by_other_thread;
      Alcotest.test_case "dirty conflict detection" `Quick
        dirty_conflict_detection;
      QCheck_alcotest.to_alcotest crash_image_prefix_consistency;
      Alcotest.test_case "of_image roundtrip" `Quick of_image_roundtrip;
    ]
end

(* Differential test of the chunked storage against a flat-[Bytes] model
   of the heap. The model keeps both images as single [bytes] of the heap's
   size, so its bounds checks are the [Bytes] primitives' own, and it
   restates the worst-case cache rules byte by byte. Addresses are biased
   to straddle the 64 KiB chunk boundaries and the last byte of a heap
   whose size is not a multiple of the chunk size. *)
module Chunk_tests = struct
  let chunk = 1 lsl 16
  let heap_size = (2 * chunk) + (chunk / 2) + 40

  module Model = struct
    type line = {
      mutable version : int;
      mutable committed : int; (* version of the newest written-back snapshot *)
      mutable pending : (int * bytes * int) list; (* newest first *)
    }

    type t = {
      eadr : bool;
      vol : bytes;
      per : bytes;
      writer : int array; (* 1 + tid of the byte's unpersisted store, or 0 *)
      lines : (int, line) Hashtbl.t; (* line base -> cache state *)
      nt : (int, (int * int) list) Hashtbl.t; (* tid -> ranges, newest first *)
      mutable bump : int;
    }

    let of_image ~eadr per =
      {
        eadr;
        vol = Bytes.copy per;
        per;
        writer = Array.make (Bytes.length per) 0;
        lines = Hashtbl.create 16;
        nt = Hashtbl.create 4;
        bump = 64;
      }

    let create ~eadr size = of_image ~eadr (Bytes.make size '\000')

    (* Recovery: both images restart from the persistent one. *)
    let crash m = of_image ~eadr:false (Bytes.copy m.per)

    let alloc m ~align n =
      let addr = (m.bump + align - 1) land lnot (align - 1) in
      if addr + n > Bytes.length m.vol then raise Out_of_memory;
      m.bump <- addr + n;
      addr

    let line_clean m base =
      let rec go a =
        a >= min (base + 64) (Bytes.length m.vol)
        || (m.writer.(a) = 0 && go (a + 1))
      in
      go base

    let note_store m ~tid ~addr ~size ~nt =
      if m.eadr then Bytes.blit m.vol addr m.per addr size
      else begin
        if nt then
          Hashtbl.replace m.nt tid
            ((addr, size)
            :: Option.value ~default:[] (Hashtbl.find_opt m.nt tid));
        for a = addr to addr + size - 1 do
          m.writer.(a) <- tid + 1
        done;
        List.iter
          (fun base ->
            match Hashtbl.find_opt m.lines base with
            | Some l -> l.version <- l.version + 1
            | None ->
                Hashtbl.add m.lines base
                  { version = 1; committed = 0; pending = [] })
          (Pmem.Layout.lines_of_range addr size)
      end

    let flush m ~tid ~line =
      match Hashtbl.find_opt m.lines line with
      | None -> ()
      | Some l ->
          l.pending <- (tid, Bytes.sub m.vol line 64, l.version) :: l.pending

    let clear_line m base =
      for a = base to min (base + 64) (Bytes.length m.vol) - 1 do
        m.writer.(a) <- 0
      done

    let drop_if_clean m base =
      match Hashtbl.find_opt m.lines base with
      | Some l when l.pending = [] && line_clean m base ->
          Hashtbl.remove m.lines base
      | _ -> ()

    let fence m ~tid =
      let bases = Hashtbl.fold (fun b _ acc -> b :: acc) m.lines [] in
      List.iter
        (fun base ->
          let l = Hashtbl.find m.lines base in
          let mine, rest = List.partition (fun (f, _, _) -> f = tid) l.pending in
          if mine <> [] then begin
            l.pending <- rest;
            List.iter
              (fun (_, snap, v) ->
                if v >= l.committed then begin
                  l.committed <- v;
                  Bytes.blit snap 0 m.per base 64;
                  if v = l.version then clear_line m base
                end)
              (List.rev mine);
            drop_if_clean m base
          end)
        bases;
      let ranges = Option.value ~default:[] (Hashtbl.find_opt m.nt tid) in
      Hashtbl.remove m.nt tid;
      List.iter
        (fun (addr, size) ->
          Bytes.blit m.vol addr m.per addr size;
          for a = addr to addr + size - 1 do
            if m.writer.(a) = tid + 1 then m.writer.(a) <- 0
          done;
          List.iter (drop_if_clean m) (Pmem.Layout.lines_of_range addr size))
        (List.rev ranges)

    let unpersisted m =
      Array.fold_left (fun n w -> if w <> 0 then n + 1 else n) 0 m.writer
  end

  type op =
    | Write_i64 of int * int64
    | Write_u8 of int * int
    | Write_bytes of int * int * char
    | Store of int * int * int * bool (* tid, addr, size, non-temporal *)
    | Flush of int * int
    | Fence of int
    | Read_i64 of int
    | Read_u8 of int
    | Read_bytes of int * int
    | Alloc of int * int (* align, size *)
    | Crash (* continue on [of_image (crash_image h)] *)

  let show = function
    | Write_i64 (a, v) -> Printf.sprintf "write_i64 %d %Ld" a v
    | Write_u8 (a, v) -> Printf.sprintf "write_u8 %d %d" a v
    | Write_bytes (a, n, c) -> Printf.sprintf "write_bytes %d %d %C" a n c
    | Store (t, a, n, nt) -> Printf.sprintf "store t%d %d %d nt=%b" t a n nt
    | Flush (t, a) -> Printf.sprintf "flush t%d %d" t a
    | Fence t -> Printf.sprintf "fence t%d" t
    | Read_i64 a -> Printf.sprintf "read_i64 %d" a
    | Read_u8 a -> Printf.sprintf "read_u8 %d" a
    | Read_bytes (a, n) -> Printf.sprintf "read_bytes %d %d" a n
    | Alloc (al, n) -> Printf.sprintf "alloc ~align:%d %d" al n
    | Crash -> "crash"

  (* Near a chunk boundary, near the last byte, anywhere, or just below 0. *)
  let addr_gen =
    QCheck.Gen.(
      frequency
        [
          ( 4,
            map2
              (fun k d -> (k * chunk) + d)
              (int_range 1 (heap_size / chunk))
              (int_range (-12) 12) );
          (2, map (fun d -> heap_size + d) (int_range (-16) 4));
          (3, int_bound (heap_size - 1));
          (1, int_range (-8) (-1));
        ])

  let len_gen =
    QCheck.Gen.(
      frequency [ (6, int_bound 80); (1, int_range chunk (chunk + 200)) ])

  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun a v -> Write_i64 (a, Int64.of_int v)) addr_gen int);
          (2, map2 (fun a v -> Write_u8 (a, v)) addr_gen (int_bound 255));
          ( 2,
            map3 (fun a n c -> Write_bytes (a, n, c)) addr_gen len_gen
              printable );
          ( 4,
            (* A store's range is valid data the caller just wrote. *)
            map3
              (fun (t, nt) a n ->
                let a = max 0 (min a (heap_size - 1)) in
                Store (t, a, min n (heap_size - a), nt))
              (pair (int_bound 2) bool) addr_gen (int_range 1 80) );
          ( 3,
            map2
              (fun t a -> Flush (t, Pmem.Layout.line_of (max 0 a)))
              (int_bound 2) addr_gen );
          (3, map (fun t -> Fence t) (int_bound 2));
          (2, map (fun a -> Read_i64 a) addr_gen);
          (1, map (fun a -> Read_u8 a) addr_gen);
          (1, map2 (fun a n -> Read_bytes (a, n)) addr_gen len_gen);
          ( 1,
            map2
              (fun al n -> Alloc (al, n))
              (oneofl [ 8; 64 ])
              (frequency [ (3, int_range 1 200); (1, int_range 1 (2 * chunk)) ])
          );
          (1, return Crash);
        ])

  (* A step's observable result: what a read returned, or which exception
     the access raised. *)
  let outcome f =
    match f () with
    | v -> Ok v
    | exception Invalid_argument _ -> Error "Invalid_argument"
    | exception Out_of_memory -> Error "Out_of_memory"

  let step (h, m) op =
    let h, m =
      if op <> Crash then (h, m)
      else (Pmem.Heap.of_image (Pmem.Heap.crash_image h), Model.crash m)
    in
    let tid = Trace.Tid.of_int in
    let run_heap () =
      match op with
      | Write_i64 (a, v) -> Pmem.Heap.write_i64 h a v; ""
      | Write_u8 (a, v) -> Pmem.Heap.write_u8 h a v; ""
      | Write_bytes (a, n, c) -> Pmem.Heap.write_bytes h a (Bytes.make n c); ""
      | Store (t, a, n, nt) ->
          Pmem.Heap.note_store h ~tid:(tid t) ~addr:a ~size:n ~non_temporal:nt;
          ""
      | Flush (t, line) -> Pmem.Heap.flush h ~tid:(tid t) ~line; ""
      | Fence t -> Pmem.Heap.fence h ~tid:(tid t); ""
      | Read_i64 a -> Int64.to_string (Pmem.Heap.read_i64 h a)
      | Read_u8 a -> string_of_int (Pmem.Heap.read_u8 h a)
      | Read_bytes (a, n) -> Bytes.to_string (Pmem.Heap.read_bytes h a n)
      | Alloc (align, n) -> string_of_int (Pmem.Heap.alloc ~align h n)
      | Crash -> ""
    in
    let run_model () =
      match op with
      | Write_i64 (a, v) -> Bytes.set_int64_le m.Model.vol a v; ""
      | Write_u8 (a, v) -> Bytes.set m.Model.vol a (Char.chr v); ""
      | Write_bytes (a, n, c) -> Bytes.blit (Bytes.make n c) 0 m.Model.vol a n; ""
      | Store (t, a, n, nt) -> Model.note_store m ~tid:t ~addr:a ~size:n ~nt; ""
      | Flush (t, line) -> Model.flush m ~tid:t ~line; ""
      | Fence t -> Model.fence m ~tid:t; ""
      | Read_i64 a -> Int64.to_string (Bytes.get_int64_le m.Model.vol a)
      | Read_u8 a -> string_of_int (Char.code (Bytes.get m.Model.vol a))
      | Read_bytes (a, n) -> Bytes.sub_string m.Model.vol a n
      | Alloc (align, n) -> string_of_int (Model.alloc m ~align n)
      | Crash -> ""
    in
    let got = outcome run_heap and want = outcome run_model in
    if got <> want then
      QCheck.Test.fail_reportf "%s: heap and model disagree" (show op);
    if not (Bytes.equal (Pmem.Heap.crash_image h) m.Model.per) then
      QCheck.Test.fail_reportf "%s: crash image differs" (show op);
    if Pmem.Heap.read_bytes h 0 heap_size <> m.Model.vol then
      QCheck.Test.fail_reportf "%s: volatile image differs" (show op);
    if Pmem.Heap.unpersisted_bytes h <> Model.unpersisted m then
      QCheck.Test.fail_reportf "%s: unpersisted bytes differ" (show op);
    (h, m)

  let differential =
    QCheck.Test.make ~name:"chunked heap == flat model across chunk edges"
      ~count:150
      (QCheck.make
         ~print:(fun (eadr, ops) ->
           Printf.sprintf "eadr=%b\n%s" eadr
             (String.concat "\n" (List.map show ops)))
         QCheck.Gen.(pair (frequency [ (4, return false); (1, return true) ])
                       (list_size (int_range 1 60) op_gen)))
      (fun (eadr, ops) ->
        let h = Pmem.Heap.create ~eadr ~size:heap_size () in
        ignore (List.fold_left step (h, Model.create ~eadr heap_size) ops);
        true)

  let resident () =
    let h = Pmem.Heap.create ~size:(256 * 1024 * 1024) () in
    Alcotest.(check int) "fresh heap holds nothing" 0
      (Pmem.Heap.resident_bytes h);
    let a = Pmem.Heap.alloc h 8 in
    Pmem.Heap.write_i64 h a 42L;
    Pmem.Heap.note_store h ~tid:t0 ~addr:a ~size:8 ~non_temporal:false;
    Pmem.Heap.flush h ~tid:t0 ~line:(Pmem.Layout.line_of a);
    Pmem.Heap.fence h ~tid:t0;
    Alcotest.(check int) "one chunk per image" (2 * chunk)
      (Pmem.Heap.resident_bytes h);
    let post = Pmem.Heap.of_image (Pmem.Heap.crash_image h) in
    Alcotest.(check int) "recovered heap: same two chunks" (2 * chunk)
      (Pmem.Heap.resident_bytes post);
    Alcotest.(check int64) "recovered value" 42L (Pmem.Heap.read_i64 post a);
    Alcotest.(check int) "recovered size" (256 * 1024 * 1024)
      (Pmem.Heap.size post)

  let tests =
    [
      QCheck_alcotest.to_alcotest differential;
      Alcotest.test_case "resident bytes" `Quick resident;
    ]
end

(* A fence visits only the lines its thread flushed since its previous
   fence. The reference is [Chunk_tests.Model], whose fence walks every
   line state, as the heap's did: dense flush/fence/store interleavings
   of several threads over a few lines must leave the same persistent
   image, dirty-line count and unpersisted bytes after every step. *)
module Fence_tests = struct
  module Model = Chunk_tests.Model

  let heap_size = 4096
  let nlines = 8
  let nthreads = 6

  type op =
    | Store of int * int * int * bool (* tid, addr, size, non-temporal *)
    | Flush of int * int (* tid, line *)
    | Fence of int

  let show = function
    | Store (t, a, n, nt) -> Printf.sprintf "store t%d %d %d nt=%b" t a n nt
    | Flush (t, l) -> Printf.sprintf "flush t%d %d" t l
    | Fence t -> Printf.sprintf "fence t%d" t

  let op_gen =
    QCheck.Gen.(
      let tid = int_bound (nthreads - 1) in
      frequency
        [
          ( 4,
            map3
              (fun (t, nt) a n -> Store (t, a, n, nt))
              (pair tid (frequency [ (4, return false); (1, return true) ]))
              (int_bound ((nlines * 64) - 1))
              (int_range 1 72) );
          (4, map2 (fun t l -> Flush (t, 64 * l)) tid (int_bound (nlines - 1)));
          (3, map (fun t -> Fence t) tid);
        ])

  let dirty_lines m =
    let n = ref 0 in
    for l = 0 to (heap_size / 64) - 1 do
      if not (Model.line_clean m (64 * l)) then incr n
    done;
    !n

  let step (h, m, k) op =
    let tid = Trace.Tid.of_int in
    (* Fresh bytes for every store, so a stale snapshot shows. *)
    (match op with
    | Store (t, a, n, nt) ->
        let b = Bytes.make n (Char.chr (33 + (k mod 90))) in
        Pmem.Heap.write_bytes h a b;
        Bytes.blit b 0 m.Model.vol a n;
        Pmem.Heap.note_store h ~tid:(tid t) ~addr:a ~size:n ~non_temporal:nt;
        Model.note_store m ~tid:t ~addr:a ~size:n ~nt
    | Flush (t, line) ->
        Pmem.Heap.flush h ~tid:(tid t) ~line;
        Model.flush m ~tid:t ~line
    | Fence t ->
        Pmem.Heap.fence h ~tid:(tid t);
        Model.fence m ~tid:t);
    if not (Bytes.equal (Pmem.Heap.crash_image h) m.Model.per) then
      QCheck.Test.fail_reportf "%s: persistent image differs" (show op);
    if Pmem.Heap.dirty_lines h <> dirty_lines m then
      QCheck.Test.fail_reportf "%s: dirty_lines %d, reference %d" (show op)
        (Pmem.Heap.dirty_lines h) (dirty_lines m);
    if Pmem.Heap.unpersisted_bytes h <> Model.unpersisted m then
      QCheck.Test.fail_reportf "%s: unpersisted bytes differ" (show op);
    (h, m, k + 1)

  let per_thread_fence_matches_walk =
    QCheck.Test.make ~name:"per-thread fence == whole-table walk" ~count:300
      (QCheck.make
         ~print:(fun ops -> String.concat "\n" (List.map show ops))
         QCheck.Gen.(list_size (int_range 1 200) op_gen))
      (fun ops ->
        let h = Pmem.Heap.create ~size:heap_size () in
        ignore
          (List.fold_left step (h, Model.create ~eadr:false heap_size, 0) ops);
        true)

  let tests = [ QCheck_alcotest.to_alcotest per_thread_fence_matches_walk ]
end

let () =
  Alcotest.run "pmem"
    [
      ("layout", Layout_tests.tests);
      ("alloc", Alloc_tests.tests);
      ("persistence", Persistence_tests.tests);
      ("chunks", Chunk_tests.tests);
      ("fence", Fence_tests.tests);
    ]
