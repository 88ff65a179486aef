exception Parse_error of int * string

type format = V1 | V2

let fail lineno msg = raise (Parse_error (lineno, msg))

(* The trailer hash is FNV-1a 64-bit ([Journal.fnv_fold]) over every
   event's line and its '\n'. This folds one line, bytes [a .. b-1] of
   [s], into [h]. *)
let fnv_line h s a b =
  h := Journal.fnv_fold (Journal.fnv_fold_bytes !h s a (b - a)) "\n"

(* ---- v1 encoder ----

   One encoder writes the canonical v1 line of an event into a reused
   byte buffer, without Printf. [event_to_line] copies it out, and the
   v1 trailer hash ([fingerprint], and a v1 read) is folded over the
   bytes just encoded. The v2 writer shares the byte buffer. *)

type buf = { mutable bytes : Bytes.t; mutable len : int }

let buf_create n = { bytes = Bytes.create n; len = 0 }

let reserve b n =
  if b.len + n > Bytes.length b.bytes then begin
    let bytes = Bytes.create (max (2 * Bytes.length b.bytes) (b.len + n)) in
    Bytes.blit b.bytes 0 bytes 0 b.len;
    b.bytes <- bytes
  end

let put_char b c =
  if b.len = Bytes.length b.bytes then reserve b 1;
  Bytes.unsafe_set b.bytes b.len c;
  b.len <- b.len + 1

let put_string b s =
  let n = String.length s in
  reserve b n;
  Bytes.unsafe_blit_string s 0 b.bytes b.len n;
  b.len <- b.len + n

(* Decimal digits of [n <= 0]; working on the negative side covers
   [min_int]. *)
let rec put_neg_digits b n =
  if n <= -10 then put_neg_digits b (n / 10);
  put_char b (Char.unsafe_chr (48 - (n mod 10)))

let put_int b n =
  if n < 0 then begin
    put_char b '-';
    put_neg_digits b n
  end
  else put_neg_digits b (-n)

let put_field b n =
  put_char b ' ';
  put_int b n

let rec put_frames b = function
  | [] -> ()
  | f :: rest ->
      put_char b ';';
      put_string b f;
      put_frames b rest

(* " <file>:<line>" plus " frame;frame..." when there are frames. *)
let put_site b (s : Site.t) =
  put_char b ' ';
  put_string b s.Site.file;
  put_char b ':';
  put_int b s.Site.line;
  match s.Site.frames with
  | [] -> ()
  | f :: rest ->
      put_char b ' ';
      put_string b f;
      put_frames b rest

let flush_kind_to_string = function
  | Event.Clwb -> "clwb"
  | Event.Clflushopt -> "clflushopt"
  | Event.Clflush -> "clflush"

let put_event b ev =
  match ev with
  | Event.Store { tid; addr; size; site; non_temporal } ->
      put_char b 'S';
      put_field b (Tid.to_int tid);
      put_field b addr;
      put_field b size;
      put_field b (if non_temporal then 1 else 0);
      put_site b site
  | Event.Load { tid; addr; size; site } ->
      put_char b 'L';
      put_field b (Tid.to_int tid);
      put_field b addr;
      put_field b size;
      put_site b site
  | Event.Flush { tid; line; kind; site } ->
      put_char b 'F';
      put_field b (Tid.to_int tid);
      put_field b line;
      put_char b ' ';
      put_string b (flush_kind_to_string kind);
      put_site b site
  | Event.Fence { tid; site } ->
      put_char b 'M';
      put_field b (Tid.to_int tid);
      put_site b site
  | Event.Lock_acquire { tid; lock; site } ->
      put_char b 'A';
      put_field b (Tid.to_int tid);
      put_field b (Lock_id.to_int lock);
      put_site b site
  | Event.Lock_release { tid; lock; site } ->
      put_char b 'R';
      put_field b (Tid.to_int tid);
      put_field b (Lock_id.to_int lock);
      put_site b site
  | Event.Thread_create { parent; child } ->
      put_char b 'C';
      put_field b (Tid.to_int parent);
      put_field b (Tid.to_int child)
  | Event.Thread_join { waiter; joined } ->
      put_char b 'J';
      put_field b (Tid.to_int waiter);
      put_field b (Tid.to_int joined)

(* Append the event's line to [b] and fold it into [h]; the caller adds
   the '\n' when it keeps the bytes. *)
let hash_event b h ev =
  let start = b.len in
  put_event b ev;
  fnv_line h b.bytes start b.len

let event_to_line ev =
  let b = buf_create 64 in
  put_event b ev;
  Bytes.sub_string b.bytes 0 b.len

(* ---- decoder ----

   A cursor scan of one line [s.[lo .. hi-1]]: fields are runs of
   non-space bytes separated by runs of ' ' (a tab is an ordinary byte
   inside a line; [read] trims whitespace at the ends first). The site
   tail "<file>:<line> [frames]" is parsed once per distinct spelling and
   the [Site.t] shared by every event that repeats it.

   The scan also notes whether the line is spelled canonically (single
   spaces, plain decimals without leading zeros, [nt] 0 or 1, a canonical
   site tail), as every line [event_to_line] gives is: such a line is
   its own canonical serialization, and [read] hashes its bytes as they
   stand.

   When a line has several faults, the one reported is the one the
   pre-scanner codec met first. It evaluated each event's record fields
   from the last declared to the first: a store's nt field, then the
   site, then the other fields from the last to the first. *)

(* One interned site tail: the site, and whether the spelling it was
   read in is the canonical one. *)
type tail = { site : Site.t; canonical : bool }

type decoder = {
  tails : (string, tail) Hashtbl.t;  (** By the tail's raw text. *)
  bounds : int array;  (** [start; end) of each fixed field after the tag. *)
  mutable rest : int;  (** Start of what follows the fixed fields. *)
  mutable canonical : bool;  (** The line so far is spelled canonically. *)
  spare : buf;  (** Re-encodes a line that is not. *)
}

let decoder () =
  { tails = Hashtbl.create 256; bounds = Array.make 8 0; rest = 0;
    canonical = true; spare = buf_create 256 }

let rec skip_spaces s i hi =
  if i < hi && Bytes.unsafe_get s i = ' ' then skip_spaces s (i + 1) hi else i

let rec token_end s i hi =
  if i < hi && Bytes.unsafe_get s i <> ' ' then token_end s (i + 1) hi else i

let rec count_fields s i hi n =
  let a = skip_spaces s i hi in
  if a = hi then n else count_fields s (token_end s a hi) hi (n + 1)

(* Record the bounds of up to [n] fields from [i]; returns how many were
   found and leaves [d.rest] at the first byte after them. *)
let rec scan_fields d s i hi n k =
  let a = skip_spaces s i hi in
  if a > i + 1 && a < hi then d.canonical <- false;
  if k = n || a = hi then begin
    d.rest <- a;
    k
  end
  else begin
    let b = token_end s a hi in
    d.bounds.(2 * k) <- a;
    d.bounds.((2 * k) + 1) <- b;
    scan_fields d s b hi n (k + 1)
  end

(* Plain decimal digits, or -1 at the first other byte. *)
let rec decimal s i b acc =
  if i = b then acc
  else
    match Bytes.unsafe_get s i with
    | '0' .. '9' as c -> decimal s (i + 1) b ((acc * 10) + Char.code c - 48)
    | _ -> -1

(* An integer field. Up to 18 plain digits cannot overflow and take the
   fast path; any other spelling ("+5", "0x10", "1_000", "-3", more
   digits) goes through [int_of_string_opt], so exactly the fields it
   accepts are accepted. *)
let int_field d ~lineno s k =
  let a = d.bounds.(2 * k) and b = d.bounds.((2 * k) + 1) in
  let v = if b - a <= 18 then decimal s a b 0 else -1 in
  if v >= 0 then begin
    if b - a > 1 && Bytes.unsafe_get s a = '0' then d.canonical <- false;
    v
  end
  else begin
    d.canonical <- false;
    let tok = Bytes.sub_string s a (b - a) in
    match int_of_string_opt tok with
    | Some v -> v
    | None -> fail lineno (Printf.sprintf "expected integer, got %S" tok)
  end

(* Ids are checked here, so a negative one is a parse error at its line
   rather than [Tid.of_int]'s [Invalid_argument]. *)
let id_field what d ~lineno s k =
  let v = int_field d ~lineno s k in
  if v < 0 then fail lineno (Printf.sprintf "negative %s %d" what v);
  v

let tid_field d ~lineno s k = Tid.of_int (id_field "thread id" d ~lineno s k)

let lock_field d ~lineno s k =
  Lock_id.of_int (id_field "lock id" d ~lineno s k)

let flush_kind_field d ~lineno s k =
  let a = d.bounds.(2 * k) and b = d.bounds.((2 * k) + 1) in
  match Bytes.sub_string s a (b - a) with
  | "clwb" -> Event.Clwb
  | "clflushopt" -> Event.Clflushopt
  | "clflush" -> Event.Clflush
  | kind -> fail lineno (Printf.sprintf "unknown flush kind %S" kind)

(* The site tail [s.[a .. hi-1]], [a] at its first field. ':' is split
   from the right, so file names may contain it. *)
let site_of_tail ~lineno s a hi =
  let e = token_end s a hi in
  let file, line =
    match Bytes.rindex_from_opt s (e - 1) ':' with
    | Some i when i >= a -> (
        ( Bytes.sub_string s a (i - a),
          match int_of_string_opt (Bytes.sub_string s (i + 1) (e - i - 1)) with
          | Some n -> n
          | None -> fail lineno "bad line number" ))
    | Some _ | None -> fail lineno "site has no ':'"
  in
  let f0 = skip_spaces s e hi in
  let frames =
    if f0 = hi then []
    else
      let f1 = token_end s f0 hi in
      if skip_spaces s f1 hi < hi then fail lineno "trailing fields"
      else String.split_on_char ';' (Bytes.sub_string s f0 (f1 - f0))
  in
  Site.v ~frames file line

let site_field d ~lineno s hi =
  let a = d.rest in
  if a = hi then fail lineno "missing site";
  let raw = Bytes.sub_string s a (hi - a) in
  let t =
    match Hashtbl.find d.tails raw with
    | t -> t
    | exception Not_found ->
        let site = site_of_tail ~lineno s a hi in
        let b = buf_create 64 in
        put_site b site;
        let t =
          { site; canonical = Bytes.sub_string b.bytes 0 b.len = " " ^ raw }
        in
        Hashtbl.add d.tails raw t;
        t
  in
  if not t.canonical then d.canonical <- false;
  t.site

(* Fixed fields after each tag; -1 for an unknown tag. *)
let arity = function
  | 'S' -> 4
  | 'L' | 'F' -> 3
  | 'A' | 'R' | 'C' | 'J' -> 2
  | 'M' -> 1
  | _ -> -1

let unknown_tag lineno s t0 t1 =
  fail lineno
    (Printf.sprintf "unknown event tag %S" (Bytes.sub_string s t0 (t1 - t0)))

(* A known tag with the wrong number of fields: [n] expected, [got]
   present (a [C] or [J] line may also have too many). *)
let field_count_error lineno tag n got =
  fail lineno
    (if tag = 'C' || tag = 'J' then
       Printf.sprintf "%S expects %d fields, got %d" (String.make 1 tag) n got
     else
       Printf.sprintf "%S expects %d field%s and a site, got %d"
         (String.make 1 tag) n (if n = 1 then "" else "s") got)

let decode d ~lineno s lo hi =
  d.canonical <- true;
  let t0 = skip_spaces s lo hi in
  if t0 = hi then fail lineno "empty line";
  let t1 = token_end s t0 hi in
  let tag = if t1 = t0 + 1 then Bytes.unsafe_get s t0 else '?' in
  let n = arity tag in
  if n < 0 then unknown_tag lineno s t0 t1;
  let got = scan_fields d s t1 hi n 0 in
  match tag with
  | 'C' | 'J' ->
      if got < n || d.rest < hi then
        field_count_error lineno tag n (count_fields s t1 hi 0);
      let b = tid_field d ~lineno s 1 in
      let a = tid_field d ~lineno s 0 in
      if tag = 'C' then Event.Thread_create { parent = a; child = b }
      else Event.Thread_join { waiter = a; joined = b }
  | _ -> (
      if got < n then field_count_error lineno tag n got;
      let nt = if tag = 'S' then int_field d ~lineno s 3 else 0 in
      let site = site_field d ~lineno s hi in
      match tag with
      | 'S' ->
          if nt > 1 then d.canonical <- false;
          let non_temporal = nt <> 0 in
          let size = int_field d ~lineno s 2 in
          let addr = int_field d ~lineno s 1 in
          let tid = tid_field d ~lineno s 0 in
          Event.Store { tid; addr; size; site; non_temporal }
      | 'L' ->
          let size = int_field d ~lineno s 2 in
          let addr = int_field d ~lineno s 1 in
          let tid = tid_field d ~lineno s 0 in
          Event.Load { tid; addr; size; site }
      | 'F' ->
          let kind = flush_kind_field d ~lineno s 2 in
          let line = int_field d ~lineno s 1 in
          let tid = tid_field d ~lineno s 0 in
          Event.Flush { tid; line; kind; site }
      | 'M' -> Event.Fence { tid = tid_field d ~lineno s 0; site }
      | _ ->
          let lock = lock_field d ~lineno s 1 in
          let tid = tid_field d ~lineno s 0 in
          if tag = 'A' then Event.Lock_acquire { tid; lock; site }
          else Event.Lock_release { tid; lock; site })

(* The decoder only reads its bytes, so the string is never mutated. *)
let event_of_line line =
  decode (decoder ()) ~lineno:0 (Bytes.unsafe_of_string line) 0
    (String.length line)

(* ---- v1 checksum trailer ----

   "# trailer events=<n> fnv1a=<16-hex>" after the last event: an
   FNV-1a 64-bit hash of the canonical serialization of every event
   (each canonical line followed by '\n'). Readers hash the
   canonical form of each *parsed* event, so verification is independent
   of insignificant spelling (spaces, "007", "0x10") but catches content
   corruption. Being a comment line, the trailer is invisible to
   pre-trailer readers. *)

(* The same hash the trailer records, computed in memory: a 16-hex-digit
   schedule signature. Two traces fingerprint equal iff their canonical
   serializations are byte-identical. *)
let fingerprint trace =
  let h = ref Journal.fnv_offset in
  let b = buf_create 256 in
  Tracebuf.iter
    (fun ev ->
      b.len <- 0;
      hash_event b h ev)
    trace;
  Printf.sprintf "%016Lx" !h

let trailer_tag = "# trailer "

(* [Some (events, hash)] when [trimmed] is a well-formed trailer,
   [None] when it is some other comment. A line that starts with the
   trailer tag but does not scan is reported as malformed. *)
let parse_trailer trimmed =
  if not (String.starts_with ~prefix:trailer_tag trimmed) then Ok None
  else
    match
      Scanf.sscanf_opt trimmed "# trailer events=%d fnv1a=%Lx%!" (fun n h ->
          (n, h))
    with
    | Some (n, h) -> Ok (Some (n, h))
    | None -> Error "malformed trailer"

let count_mismatch ~trailer ~events =
  Printf.sprintf "trailer event count mismatch: trailer says %d, trace has %d"
    trailer events

(* ---- reading in chunks ----

   Both formats read the channel in 64 KiB chunks into one buffer: the
   bytes [pos .. len-1] are read and not yet consumed. *)

type src = {
  ic : in_channel;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable eof : bool;
}

(* Keep the unconsumed bytes and read more behind them, doubling the
   buffer when they fill it. [false] at the end of the input. *)
let refill src =
  let rest = src.len - src.pos in
  let dst =
    if rest = Bytes.length src.buf then Bytes.create (2 * rest) else src.buf
  in
  Bytes.blit src.buf src.pos dst 0 rest;
  src.buf <- dst;
  src.pos <- 0;
  src.len <- rest;
  let n = input src.ic dst rest (Bytes.length dst - rest) in
  if n = 0 then src.eof <- true else src.len <- rest + n;
  n > 0

(* ---- v1: text lines ---- *)

(* String.trim's whitespace. *)
let is_blank = function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false

(* One line [buf.[a .. b-1]], without its '\n': trimmed, skipped when
   blank, handed to [on_trailer] when a comment and to [on_event] (with
   its trimmed bounds) otherwise. *)
let dispatch ~on_event ~on_trailer lineno buf a b =
  let hi = ref b in
  while !hi > a && is_blank (Bytes.unsafe_get buf (!hi - 1)) do decr hi done;
  let lo = ref a in
  while !lo < !hi && is_blank (Bytes.unsafe_get buf !lo) do incr lo done;
  if !lo < !hi then
    if Bytes.unsafe_get buf !lo = '#' then
      on_trailer lineno (parse_trailer (Bytes.sub_string buf !lo (!hi - !lo)))
    else on_event lineno buf !lo !hi

let rec newline buf i n =
  if i = n || Bytes.unsafe_get buf i = '\n' then i else newline buf (i + 1) n

(* Shared scanning loop: dispatches each line in place in the chunk
   buffer, so reading allocates nothing per line. [on_event] may raise
   (strict) or record-and-stop (tolerant); [on_trailer lineno result]
   decides what a (possibly malformed) trailer means. *)
let scan_lines src ~on_event ~on_trailer =
  let lineno = ref 0 and more = ref true in
  while !more do
    let j = newline src.buf src.pos src.len in
    if j < src.len then begin
      incr lineno;
      dispatch ~on_event ~on_trailer !lineno src.buf src.pos j;
      src.pos <- j + 1
    end
    else if not (refill src) then begin
      more := false;
      (* A last line without its '\n'. *)
      if src.len > 0 then begin
        incr lineno;
        dispatch ~on_event ~on_trailer !lineno src.buf 0 src.len
      end
    end
  done

(* Fold the event just decoded from [line.[lo .. hi-1]] into the trailer
   hash: its own bytes when canonical, else its canonical encoding. *)
let hash_line d h line lo hi ev =
  if d.canonical then fnv_line h line lo hi
  else begin
    d.spare.len <- 0;
    hash_event d.spare h ev
  end

let read_v1 src =
  let d = decoder () in
  let trace = Tracebuf.create () in
  let h = ref Journal.fnv_offset in
  scan_lines src
    ~on_event:(fun lineno line lo hi ->
      let ev = decode d ~lineno line lo hi in
      hash_line d h line lo hi ev;
      Tracebuf.push trace ev)
    ~on_trailer:(fun lineno -> function
      | Ok None -> ()
      | Error msg -> fail lineno msg
      | Ok (Some (events, hash)) ->
          if events <> Tracebuf.length trace then
            fail lineno
              (count_mismatch ~trailer:events ~events:(Tracebuf.length trace));
          if hash <> !h then
            fail lineno
              (Printf.sprintf
                 "trailer checksum mismatch: trailer says %016Lx, events hash \
                  to %016Lx"
                 hash !h));
  trace

type tolerant = {
  salvaged : Tracebuf.t;
  salvaged_events : int;
  dropped_lines : int;
  first_error : (int * string) option;
  checksum : [ `Verified | `Mismatch | `Absent ];
}

let read_tolerant_v1 src =
  let d = decoder () in
  let trace = Tracebuf.create () in
  let h = ref Journal.fnv_offset in
  let first_error = ref None in
  let dropped = ref 0 in
  let checksum = ref `Absent in
  scan_lines src
    ~on_event:(fun lineno line lo hi ->
      match !first_error with
      | Some _ -> incr dropped
      | None -> (
          match decode d ~lineno line lo hi with
          | ev ->
              hash_line d h line lo hi ev;
              Tracebuf.push trace ev
          | exception Parse_error (l, msg) ->
              first_error := Some (l, msg);
              incr dropped))
    ~on_trailer:(fun _ -> function
      | Ok None -> ()
      | Error _ -> checksum := `Mismatch
      | Ok (Some (events, hash)) ->
          checksum :=
            if events = Tracebuf.length trace && hash = !h then
              `Verified
            else `Mismatch);
  {
    salvaged = trace;
    salvaged_events = Tracebuf.length trace;
    dropped_lines = !dropped;
    first_error = !first_error;
    checksum = !checksum;
  }

(* ---- v2: binary records ----

   After the header line, one record per site definition and per event:
   a tag byte, then LEB128 fields (7 bits a byte, least significant
   first, the high bit set on every byte but the last). A field holds
   the 63-bit two's-complement pattern of an OCaml int, so it takes 1 to
   9 bytes and a negative int takes 9. Strings are a length and their
   bytes. The trailer is fixed-size, so a reader that lost the records'
   thread can still find it at the end of the file. *)

let header_v2 = "# hawkset-trace 2\n"

(* The trailer: 'T', then the event count and the FNV-1a 64, both
   little-endian 8 bytes. *)
let trailer_size = 17

let event_tag = function
  | Event.Store { non_temporal = false; _ } -> 'S'
  | Event.Store { non_temporal = true; _ } -> 'N'
  | Event.Load _ -> 'L'
  | Event.Flush { kind = Event.Clwb; _ } -> 'W'
  | Event.Flush { kind = Event.Clflushopt; _ } -> 'O'
  | Event.Flush { kind = Event.Clflush; _ } -> 'F'
  | Event.Fence _ -> 'M'
  | Event.Lock_acquire _ -> 'A'
  | Event.Lock_release _ -> 'R'
  | Event.Thread_create _ -> 'C'
  | Event.Thread_join _ -> 'J'

(* The longest event record: a tag and four 9-byte fields. *)
let max_event_record = 37

(* Unsigned LEB128 of [n]'s 63 bits: [lsr] makes a negative [n] take
   all nine bytes, the last holding bits 56-62. *)
let rec put_varint b n =
  if n land lnot 0x7f = 0 then put_char b (Char.unsafe_chr n)
  else begin
    put_char b (Char.unsafe_chr (n land 0x7f lor 0x80));
    put_varint b (n lsr 7)
  end

let put_bytes b s =
  put_varint b (String.length s);
  put_string b s

let put_site_definition b (site : Site.t) =
  put_char b '@';
  put_bytes b site.Site.file;
  put_varint b site.Site.line;
  put_varint b (List.length site.Site.frames);
  List.iter (put_bytes b) site.Site.frames

(* The event's record; [s] is its site's file index. *)
let put_record b ev s =
  match ev with
  | Event.Store { tid; addr; size; _ } | Event.Load { tid; addr; size; _ } ->
      put_char b (event_tag ev);
      put_varint b (Tid.to_int tid);
      put_varint b addr;
      put_varint b size;
      put_varint b s
  | Event.Flush { tid; line; _ } ->
      put_char b (event_tag ev);
      put_varint b (Tid.to_int tid);
      put_varint b line;
      put_varint b s
  | Event.Fence { tid; _ } ->
      put_char b (event_tag ev);
      put_varint b (Tid.to_int tid);
      put_varint b s
  | Event.Lock_acquire { tid; lock; _ } | Event.Lock_release { tid; lock; _ } ->
      put_char b (event_tag ev);
      put_varint b (Tid.to_int tid);
      put_varint b (Lock_id.to_int lock);
      put_varint b s
  | Event.Thread_create { parent = a; child = c }
  | Event.Thread_join { waiter = a; joined = c } ->
      put_char b (event_tag ev);
      put_varint b (Tid.to_int a);
      put_varint b (Tid.to_int c)

let write oc trace =
  let b = buf_create 65536 in
  (* [index.(id)] is the file index of the trace's site [id], -1 until
     its definition is written: file indices go in first-use order, each
     site defined just before the first event that carries it. *)
  let index = Array.make (Tracebuf.site_count trace) (-1) in
  let defined = ref 0 in
  put_string b header_v2;
  let h = ref Journal.fnv_offset in
  (* Hash and send [b.bytes.(from ..)]: the records, not the header. *)
  let drain from =
    h := Journal.fnv_fold_bytes !h b.bytes from (b.len - from);
    output oc b.bytes 0 b.len;
    b.len <- 0
  in
  let from = ref b.len in
  Tracebuf.iteri
    (fun i ev ->
      let id = Tracebuf.site_id trace i in
      if id >= 0 && index.(id) < 0 then begin
        put_site_definition b (Tracebuf.site trace id);
        index.(id) <- !defined;
        incr defined
      end;
      put_record b ev (if id >= 0 then index.(id) else -1);
      if b.len >= 65536 then begin
        drain !from;
        from := 0
      end)
    trace;
  drain !from;
  reserve b trailer_size;
  put_char b 'T';
  Bytes.set_int64_le b.bytes b.len (Int64.of_int (Tracebuf.length trace));
  Bytes.set_int64_le b.bytes (b.len + 8) !h;
  b.len <- b.len + 16;
  output oc b.bytes 0 b.len

(* The v2 decoder. [src.pos] is the start of the current record and
   [cur] the next byte to decode in it; only a complete record moves
   [src.pos] past it, so a refill never drops part of a record. *)
type v2 = {
  src : src;
  mutable cur : int;
  mutable record : int;  (** 1-based number of the current record. *)
  sites : int Vec.t;  (** The trace's id of each defined site. *)
  mutable h : int64;  (** FNV-1a of the record bytes before [hashed]. *)
  mutable hashed : int;  (** At most [src.pos]: only whole records. *)
}

(* Fold the complete records not yet hashed into [d.h]. *)
let fold_records d =
  d.h <- Journal.fnv_fold_bytes d.h d.src.buf d.hashed (d.src.pos - d.hashed);
  d.hashed <- d.src.pos

(* Make at least [n] bytes from [cur] available, or all that is left of
   the input. *)
let avail d n =
  let s = d.src in
  while s.len - d.cur < n && not s.eof do
    fold_records d;
    let shift = s.pos in
    ignore (refill s : bool);
    d.cur <- d.cur - shift;
    d.hashed <- 0
  done

let truncated d = fail d.record "truncated record"
let over_long d = fail d.record "over-long varint"

(* The rest of a varint whose bytes so far make [acc]. A ninth byte ends
   it; a last byte of zero after the first would have been left off. *)
let rec varint_tail d buf p acc shift =
  if p >= d.src.len then truncated d
  else
    let b = Char.code (Bytes.unsafe_get buf p) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then begin
      if b = 0 then over_long d;
      d.cur <- p + 1;
      acc
    end
    else if shift = 56 then over_long d
    else varint_tail d buf (p + 1) acc (shift + 7)

let varint d =
  let buf = d.src.buf and p = d.cur in
  if p >= d.src.len then truncated d
  else
    let b = Char.code (Bytes.unsafe_get buf p) in
    if b < 0x80 then begin
      d.cur <- p + 1;
      b
    end
    else varint_tail d buf (p + 1) (b land 0x7f) 7

(* A field that must be a non-negative int: a varint with bit 62 set
   reads as negative. *)
let count_field what d =
  let v = varint d in
  if v < 0 then fail d.record (what ^ " out of range");
  v

let tid_field d = Tid.of_int (count_field "thread id" d)

(* The trace's id of the site a record refers to. *)
let site_ref d =
  let i = varint d in
  if i < 0 || i >= Vec.length d.sites then
    fail d.record (Printf.sprintf "site %d used before its definition" i);
  Vec.get d.sites i

(* A site definition record may be longer than a chunk: each field
   first makes its bytes available. *)
let string_field d =
  avail d 9;
  let n = count_field "string length" d in
  avail d n;
  if n > d.src.len - d.cur then truncated d;
  let str = Bytes.sub_string d.src.buf d.cur n in
  d.cur <- d.cur + n;
  str

(* A definition maps to the trace's id of its site, so one defined twice
   gets one id. *)
let define_site d trace =
  let file = string_field d in
  avail d 9;
  let line = varint d in
  avail d 9;
  let n = count_field "frame count" d in
  let rec frames acc k =
    if k = 0 then List.rev acc else frames (string_field d :: acc) (k - 1)
  in
  let frames = frames [] n in
  Vec.push d.sites (Tracebuf.add_site trace (Site.v ~frames file line))

(* Decode the records after the header into [trace], up to the trailer
   or the end of the input; raises [Parse_error] at the first malformed
   record. The trailer goes to [on_trailer record events hash] with
   [d.h] the hash of every record before it, then only the end of the
   input may follow. [true] when the trailer was read. *)
let decode_v2 d trace ~on_trailer =
  let s = d.src in
  let rec next () =
    s.pos <- d.cur;
    avail d max_event_record;
    if d.cur = s.len then false
    else begin
      d.record <- d.record + 1;
      let tag = Bytes.unsafe_get s.buf d.cur in
      d.cur <- d.cur + 1;
      match tag with
      | 'S' | 'N' | 'L' ->
          let tid = tid_field d in
          let addr = varint d in
          let size = varint d in
          let id = site_ref d in
          let site = Tracebuf.site trace id in
          push id
            (if tag = 'L' then Event.Load { tid; addr; size; site }
             else Event.Store { tid; addr; size; site; non_temporal = tag = 'N' })
      | 'W' | 'O' | 'F' ->
          let tid = tid_field d in
          let line = varint d in
          let id = site_ref d in
          let kind =
            if tag = 'W' then Event.Clwb
            else if tag = 'O' then Event.Clflushopt
            else Event.Clflush
          in
          push id
            (Event.Flush { tid; line; kind; site = Tracebuf.site trace id })
      | 'M' ->
          let tid = tid_field d in
          let id = site_ref d in
          push id (Event.Fence { tid; site = Tracebuf.site trace id })
      | 'A' | 'R' ->
          let tid = tid_field d in
          let lock = Lock_id.of_int (count_field "lock id" d) in
          let id = site_ref d in
          let site = Tracebuf.site trace id in
          push id
            (if tag = 'A' then Event.Lock_acquire { tid; lock; site }
             else Event.Lock_release { tid; lock; site })
      | 'C' | 'J' ->
          let a = tid_field d in
          let b = tid_field d in
          push (-1)
            (if tag = 'C' then Event.Thread_create { parent = a; child = b }
             else Event.Thread_join { waiter = a; joined = b })
      | '@' ->
          define_site d trace;
          next ()
      | 'T' ->
          if trailer_size - 1 > s.len - d.cur then truncated d;
          let events = Int64.to_int (Bytes.get_int64_le s.buf d.cur) in
          let hash = Bytes.get_int64_le s.buf (d.cur + 8) in
          d.cur <- d.cur + trailer_size - 1;
          fold_records d;
          on_trailer d.record events hash;
          s.pos <- d.cur;
          avail d 1;
          if d.cur < s.len then fail (d.record + 1) "data after trailer";
          true
      | c -> fail d.record (Printf.sprintf "unknown record tag 0x%02x" (Char.code c))
    end
  and push id ev =
    Tracebuf.push_with_site trace ev id;
    next ()
  in
  next ()

let v2_decoder src =
  src.pos <- src.pos + String.length header_v2;
  { src; cur = src.pos; record = 0; sites = Vec.create ();
    h = Journal.fnv_offset; hashed = src.pos }

let checksum_mismatch ~trailer ~records =
  Printf.sprintf
    "trailer checksum mismatch: trailer says %016Lx, records hash to %016Lx"
    trailer records

let read_v2 src =
  let d = v2_decoder src in
  let trace = Tracebuf.create () in
  let on_trailer record events hash =
    if events <> Tracebuf.length trace then
      fail record (count_mismatch ~trailer:events ~events:(Tracebuf.length trace));
    if hash <> d.h then fail record (checksum_mismatch ~trailer:hash ~records:d.h)
  in
  if not (decode_v2 d trace ~on_trailer) then fail (d.record + 1) "missing trailer";
  trace

(* After a fault the records cannot be followed further, but the
   trailer is the input's last [trailer_size] bytes. Reads to the end
   keeping only those. *)
let trailing_trailer src =
  let more = ref true in
  while !more do
    src.pos <- max src.pos (src.len - trailer_size);
    more := refill src
  done;
  if src.len = trailer_size && Bytes.get src.buf 0 = 'T' then
    Some
      ( Int64.to_int (Bytes.get_int64_le src.buf 1),
        Bytes.get_int64_le src.buf 9 )
  else None

let read_tolerant_v2 src =
  let d = v2_decoder src in
  let trace = Tracebuf.create () in
  let checksum = ref `Absent in
  let verify events hash =
    checksum :=
      if events = Tracebuf.length trace && hash = d.h then `Verified
      else `Mismatch
  in
  let first_error =
    match decode_v2 d trace ~on_trailer:(fun _ -> verify) with
    | _ -> None
    | exception Parse_error (record, msg) ->
        if !checksum = `Absent then begin
          fold_records d;
          Option.iter (fun (events, hash) -> verify events hash)
            (trailing_trailer src)
        end;
        Some (record, msg)
  in
  {
    salvaged = trace;
    salvaged_events = Tracebuf.length trace;
    dropped_lines = (if first_error = None then 0 else 1);
    first_error;
    checksum = !checksum;
  }

(* ---- either format ---- *)

(* Read the first chunk and tell the formats apart by the header line.
   One that names neither version is an error, not a comment: a damaged
   header (a v2 one whose '\n' is gone would otherwise turn the whole
   file into one comment line) or a format this reader does not know. *)
let open_src ic =
  let src =
    { ic; buf = Bytes.create 65536; pos = 0; len = 0; eof = false }
  in
  while src.len < String.length header_v2 && refill src do () done;
  let starts s =
    src.len >= String.length s
    && Bytes.sub_string src.buf 0 (String.length s) = s
  in
  let format =
    if starts header_v2 then `V2
    else if starts "# hawkset-trace " && not (starts "# hawkset-trace 1") then
      `Unknown
    else `V1
  in
  (src, format)

let unknown_format = "unknown trace format"

let read ic =
  match open_src ic with
  | src, `V1 -> read_v1 src
  | src, `V2 -> read_v2 src
  | _, `Unknown -> fail 1 unknown_format

let read_tolerant ic =
  match open_src ic with
  | src, `V1 -> read_tolerant_v1 src
  | src, `V2 -> read_tolerant_v2 src
  | _, `Unknown ->
      { salvaged = Tracebuf.create (); salvaged_events = 0; dropped_lines = 1;
        first_error = Some (1, unknown_format); checksum = `Absent }

let format_of_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      match open_src ic with
      | _, `V2 -> V2
      | _, (`V1 | `Unknown) -> V1)

let save path trace =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc trace)

let load path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic)

let load_tolerant path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_tolerant ic)
