(* Per-line cache state. [writers.(i)] is 1 + tid of the thread whose store
   last dirtied byte [i] of the line, or 0 when the byte is clean. [version]
   counts stores to the line so that a fence can tell whether the flushed
   snapshot still covers the latest data; [committed] is the version of the
   newest snapshot already written back, so an older one cannot roll the
   persistent line back. *)
type line_state = {
  writers : int array;
  mutable version : int;
  mutable committed : int;
  mutable pending : pending_flush list;
}

and pending_flush = {
  flusher : int;
  snapshot : bytes;
  flushed_version : int;
}

type nt_range = { nt_addr : int; nt_size : int }

(* Both byte images are arrays of fixed 64 KiB chunks: chunk [i] holds
   addresses [i * chunk_size, (i + 1) * chunk_size). Every chunk starts as
   [zero_chunk], one shared buffer that is never written, and gets its own
   zeroed bytes on its first write, so a run pays only for the chunks it
   touches. A 64-byte line never straddles a chunk. *)
let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let zero_chunk = Bytes.make chunk_size '\000'

type stats = {
  mutable line_dirties : int;
  mutable flushes : int;
  mutable fences : int;
  mutable nt_stores : int;
}

let no_stats () = { line_dirties = 0; flushes = 0; fences = 0; nt_stores = 0 }

type t = {
  heap_name : string;
  heap_eadr : bool;
  heap_size : int;
  volatile : bytes array;
  persistent : bytes array;
  lines : (int, line_state) Hashtbl.t;
  nt_pending : (int, nt_range list) Hashtbl.t; (* keyed by tid *)
  mutable flushed : int list array;
      (* tid -> lines it flushed since its last fence, newest first; a
         line may repeat. A fence visits only these. *)
  mutable bump : int;
  free_lists : (int, int list) Hashtbl.t; (* size -> freed addrs, LIFO *)
  mutable stats : stats; (* counts since the last [take_stats] *)
}

let create ?(name = "/mnt/pmem/pool") ?(eadr = false) ~size () =
  if size < 0 then invalid_arg "Heap.create: negative size";
  let chunks = (size + chunk_mask) lsr chunk_bits in
  {
    heap_name = name;
    heap_eadr = eadr;
    heap_size = size;
    volatile = Array.make chunks zero_chunk;
    persistent = Array.make chunks zero_chunk;
    lines = Hashtbl.create 1024;
    nt_pending = Hashtbl.create 16;
    flushed = [||];
    bump = Layout.line_size (* keep address 0 unused as a null pointer *);
    free_lists = Hashtbl.create 16;
    stats = no_stats ();
  }

let take_stats t =
  let s = t.stats in
  t.stats <- no_stats ();
  s

let size t = t.heap_size
let name t = t.heap_name

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let alloc ?(align = 8) t n =
  if n <= 0 then invalid_arg "Heap.alloc: non-positive size";
  if not (is_power_of_two align) then
    invalid_arg "Heap.alloc: alignment must be a power of two";
  match Hashtbl.find_opt t.free_lists n with
  | Some (addr :: rest) ->
      Hashtbl.replace t.free_lists n rest;
      addr
  | Some [] | None ->
      let addr = (t.bump + align - 1) land lnot (align - 1) in
      if addr + n > t.heap_size then raise Out_of_memory;
      t.bump <- addr + n;
      addr

let free t ~addr ~size =
  let prev = Option.value ~default:[] (Hashtbl.find_opt t.free_lists size) in
  Hashtbl.replace t.free_lists size (addr :: prev)

(* Every access checks its whole range before it touches any chunk. *)
let check t addr len =
  if addr < 0 || len < 0 || addr > t.heap_size - len then
    invalid_arg "index out of bounds"

let writable image i =
  let c = image.(i) in
  if c != zero_chunk then c
  else begin
    let c = Bytes.make chunk_size '\000' in
    image.(i) <- c;
    c
  end

(* [iter_pieces addr len f] calls [f chunk offset pos n] for each maximal
   piece of [addr, addr + len) inside one chunk: [n] bytes at [offset] in
   chunk number [chunk], [pos] bytes into the range. *)
let iter_pieces addr len f =
  let stop = addr + len in
  let pos = ref addr in
  while !pos < stop do
    let off = !pos land chunk_mask in
    let n = min (stop - !pos) (chunk_size - off) in
    f (!pos lsr chunk_bits) off (!pos - addr) n;
    pos := !pos + n
  done

let read_bytes t addr len =
  check t addr len;
  let b = Bytes.create len in
  iter_pieces addr len (fun i off pos n ->
      Bytes.blit t.volatile.(i) off b pos n);
  b

let write_bytes t addr b =
  let len = Bytes.length b in
  check t addr len;
  iter_pieces addr len (fun i off pos n ->
      Bytes.blit b pos (writable t.volatile i) off n)

let read_i64 t addr =
  check t addr 8;
  let off = addr land chunk_mask in
  if off <= chunk_size - 8 then
    Bytes.get_int64_le t.volatile.(addr lsr chunk_bits) off
  else Bytes.get_int64_le (read_bytes t addr 8) 0

let write_i64 t addr v =
  check t addr 8;
  let off = addr land chunk_mask in
  if off <= chunk_size - 8 then
    Bytes.set_int64_le (writable t.volatile (addr lsr chunk_bits)) off v
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    write_bytes t addr b
  end

let read_u8 t addr =
  check t addr 1;
  Char.code (Bytes.get t.volatile.(addr lsr chunk_bits) (addr land chunk_mask))

let write_u8 t addr v =
  check t addr 1;
  Bytes.set
    (writable t.volatile (addr lsr chunk_bits))
    (addr land chunk_mask)
    (Char.chr (v land 0xff))

(* Volatile -> persistent copy of a range; a zero chunk copied onto a zero
   chunk is already in place. *)
let persist_range t addr len =
  check t addr len;
  iter_pieces addr len (fun i off _ n ->
      let src = t.volatile.(i) in
      if src != zero_chunk || t.persistent.(i) != zero_chunk then
        Bytes.blit src off (writable t.persistent i) off n)

let line_state t line_idx =
  match Hashtbl.find_opt t.lines line_idx with
  | Some s -> s
  | None ->
      let s =
        {
          writers = Array.make Layout.line_size 0;
          version = 0;
          committed = 0;
          pending = [];
        }
      in
      Hashtbl.add t.lines line_idx s;
      s

let mark_dirty t ~tid ~addr ~size =
  let mark = Trace.Tid.to_int tid + 1 in
  let stop = addr + size in
  let pos = ref addr in
  while !pos < stop do
    let line_idx = Layout.line_index !pos in
    let s = line_state t line_idx in
    t.stats.line_dirties <- t.stats.line_dirties + 1;
    s.version <- s.version + 1;
    let line_base = line_idx * Layout.line_size in
    let upto = min stop (line_base + Layout.line_size) in
    for b = !pos - line_base to upto - line_base - 1 do
      s.writers.(b) <- mark
    done;
    pos := upto
  done

let note_store t ~tid ~addr ~size ~non_temporal =
  if t.heap_eadr then
    (* The cache is part of the persistent domain: stores are durable on
       visibility; nothing is ever dirty. *)
    persist_range t addr size
  else if non_temporal then begin
    t.stats.nt_stores <- t.stats.nt_stores + 1;
    let key = Trace.Tid.to_int tid in
    let prev = Option.value ~default:[] (Hashtbl.find_opt t.nt_pending key) in
    Hashtbl.replace t.nt_pending key
      ({ nt_addr = addr; nt_size = size } :: prev);
    (* The data sits in the write-combining buffer: it is visible (we wrote
       the volatile image) but not in cache; it persists at the next fence.
       We still mark it dirty so that loads before the fence see it as
       not-yet-guaranteed-persistent. *)
    mark_dirty t ~tid ~addr ~size
  end
  else mark_dirty t ~tid ~addr ~size

let dirty_conflict t ~tid ~addr ~size =
  let me = Trace.Tid.to_int tid + 1 in
  let stop = addr + size in
  let rec scan pos =
    if pos >= stop then None
    else
      let line_idx = Layout.line_index pos in
      let line_base = line_idx * Layout.line_size in
      let upto = min stop (line_base + Layout.line_size) in
      match Hashtbl.find_opt t.lines line_idx with
      | None -> scan upto
      | Some s ->
          let rec bytes b =
            if b >= upto - line_base then scan upto
            else
              let w = s.writers.(b) in
              if w <> 0 && w <> me then Some (Trace.Tid.of_int (w - 1))
              else bytes (b + 1)
          in
          bytes (pos - line_base)
  in
  scan addr

let flush t ~tid ~line =
  if line land (Layout.line_size - 1) <> 0 then
    invalid_arg "Heap.flush: address is not line-aligned";
  t.stats.flushes <- t.stats.flushes + 1;
  let line_idx = Layout.line_index line in
  match Hashtbl.find_opt t.lines line_idx with
  | None -> () (* clean line: flushing is a no-op *)
  | Some s ->
      check t line Layout.line_size;
      let snapshot =
        Bytes.sub t.volatile.(line lsr chunk_bits) (line land chunk_mask)
          Layout.line_size
      in
      let p =
        {
          flusher = Trace.Tid.to_int tid;
          snapshot;
          flushed_version = s.version;
        }
      in
      s.pending <- p :: s.pending;
      let me = p.flusher in
      if me >= Array.length t.flushed then begin
        let bigger = Array.make (max 8 (2 * me)) [] in
        Array.blit t.flushed 0 bigger 0 (Array.length t.flushed);
        t.flushed <- bigger
      end;
      t.flushed.(me) <- line_idx :: t.flushed.(me)

(* Write-backs of one line never go back in time: a snapshot older than
   the last one committed (another thread flushed and fenced newer data
   in between) is dropped. *)
let commit_line t line_idx s p =
  if p.flushed_version >= s.committed then begin
    s.committed <- p.flushed_version;
    let line_base = line_idx * Layout.line_size in
    Bytes.blit p.snapshot 0
      (writable t.persistent (line_base lsr chunk_bits))
      (line_base land chunk_mask) Layout.line_size;
    if p.flushed_version = s.version then
      (* No store hit the line after the flush: it is now fully clean. *)
      Array.fill s.writers 0 Layout.line_size 0
  end

(* Retire [me]'s pending flushes of one line. A line holding a pending
   flush is never removed from [t.lines], so every line on [me]'s flushed
   list is still there; a repeat visit finds nothing of [me]'s left.
   Lines are independent, so the visiting order cannot change the
   result. *)
let fence_line t me line_idx =
  match Hashtbl.find t.lines line_idx with
  | exception Not_found -> ()
  | s ->
      let mine, rest = List.partition (fun p -> p.flusher = me) s.pending in
      if mine <> [] then begin
        s.pending <- rest;
        (* Commit oldest first so the newest flushed snapshot wins. *)
        List.iter (commit_line t line_idx s) (List.rev mine);
        if Array.for_all (fun w -> w = 0) s.writers && rest = [] then
          Hashtbl.remove t.lines line_idx
      end

let fence t ~tid =
  t.stats.fences <- t.stats.fences + 1;
  let me = Trace.Tid.to_int tid in
  if me < Array.length t.flushed then begin
    let lines = t.flushed.(me) in
    t.flushed.(me) <- [];
    List.iter (fence_line t me) lines
  end;
  (match Hashtbl.find_opt t.nt_pending me with
  | None -> ()
  | Some ranges ->
      Hashtbl.remove t.nt_pending me;
      let commit { nt_addr; nt_size } =
        persist_range t nt_addr nt_size;
        let stop = nt_addr + nt_size in
        let pos = ref nt_addr in
        while !pos < stop do
          let line_idx = Layout.line_index !pos in
          let line_base = line_idx * Layout.line_size in
          let upto = min stop (line_base + Layout.line_size) in
          (match Hashtbl.find_opt t.lines line_idx with
          | None -> ()
          | Some s ->
              for b = !pos - line_base to upto - line_base - 1 do
                if s.writers.(b) = me + 1 then s.writers.(b) <- 0
              done;
              if Array.for_all (fun w -> w = 0) s.writers && s.pending = []
              then Hashtbl.remove t.lines line_idx);
          pos := upto
        done
      in
      List.iter commit (List.rev ranges))

let persisted_range t ~addr ~size =
  let stop = addr + size in
  let rec scan pos =
    if pos >= stop then true
    else
      let line_idx = Layout.line_index pos in
      let line_base = line_idx * Layout.line_size in
      let upto = min stop (line_base + Layout.line_size) in
      match Hashtbl.find_opt t.lines line_idx with
      | None -> scan upto
      | Some s ->
          let rec bytes b =
            if b >= upto - line_base then scan upto
            else if s.writers.(b) <> 0 then false
            else bytes (b + 1)
          in
          bytes (pos - line_base)
  in
  scan addr

let dirty_lines t =
  Hashtbl.fold
    (fun _ s acc ->
      if Array.exists (fun w -> w <> 0) s.writers then acc + 1 else acc)
    t.lines 0

let unpersisted_bytes t =
  Hashtbl.fold
    (fun _ s acc ->
      Array.fold_left (fun n w -> if w <> 0 then n + 1 else n) acc s.writers)
    t.lines 0

let resident_bytes t =
  let count image =
    Array.fold_left (fun n c -> if c != zero_chunk then n + 1 else n) 0 image
  in
  (count t.volatile + count t.persistent) * chunk_size

(* Bytes of chunk [i] that lie inside a heap of [size] bytes. *)
let chunk_length size i = min chunk_size (size - (i lsl chunk_bits))

let crash_image t =
  (* Taken outside any machine run, so it reports itself. *)
  Obs.Registry.publish [ ("pmem.crash_images", 1) ];
  let img = Bytes.make t.heap_size '\000' in
  Array.iteri
    (fun i c ->
      if c != zero_chunk then
        Bytes.blit c 0 img (i lsl chunk_bits) (chunk_length t.heap_size i))
    t.persistent;
  img

let all_zero img base len =
  let stop = base + len in
  let rec words j =
    if j + 8 > stop then bytes j
    else Bytes.get_int64_le img j = 0L && words (j + 8)
  and bytes j = j >= stop || (Bytes.get img j = '\000' && bytes (j + 1)) in
  words base

let of_image ?(name = "/mnt/pmem/pool") img =
  let t = create ~name ~size:(Bytes.length img) () in
  for i = 0 to Array.length t.volatile - 1 do
    let base = i lsl chunk_bits in
    let len = chunk_length t.heap_size i in
    if not (all_zero img base len) then begin
      Bytes.blit img base (writable t.volatile i) 0 len;
      Bytes.blit img base (writable t.persistent i) 0 len
    end
  done;
  t
