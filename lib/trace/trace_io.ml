exception Parse_error of int * string

let header = "# hawkset-trace 1"
let fail lineno msg = raise (Parse_error (lineno, msg))

(* The trailer hash is FNV-1a 64-bit ([Journal.fnv_fold]) over every
   event's line and its '\n'. This folds one line, bytes [a .. b-1] of
   [s], into [h]. *)
let fnv_line h s a b =
  h := Journal.fnv_fold (Journal.fnv_fold_bytes !h s a (b - a)) "\n"

(* ---- encoder ----

   One encoder writes the canonical line of an event into a reused byte
   buffer, without Printf. [write] sends the buffer to the channel,
   [event_to_line] copies it out, and the trailer hash ([write],
   [fingerprint]) is folded over the bytes just encoded. *)

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
   site tail), as every line [write] emits is: such a line is its own
   canonical serialization, and [read] hashes its bytes as they stand.

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

(* ---- checksum trailer ----

   [write] appends "# trailer events=<n> fnv1a=<16-hex>" after the last
   event: an FNV-1a 64-bit hash of the canonical serialization of every
   event (each canonical line followed by '\n'). Readers hash the
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

let trailer_line ~events ~hash =
  Printf.sprintf "# trailer events=%d fnv1a=%016Lx" events hash

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

let write oc trace =
  let b = buf_create 65536 in
  let h = ref Journal.fnv_offset in
  put_string b header;
  put_char b '\n';
  Tracebuf.iter
    (fun ev ->
      hash_event b h ev;
      put_char b '\n';
      if b.len >= 65536 then begin
        output oc b.bytes 0 b.len;
        b.len <- 0
      end)
    trace;
  put_string b
    (trailer_line ~events:(Tracebuf.length trace) ~hash:!h);
  put_char b '\n';
  output oc b.bytes 0 b.len

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

(* Shared scanning loop: reads [ic] in chunks and dispatches each line
   in place, so reading allocates nothing per line. [on_event] may raise
   (strict) or record-and-stop (tolerant); [on_trailer lineno result]
   decides what a (possibly malformed) trailer means. *)
let scan_lines ic ~on_event ~on_trailer =
  let buf = ref (Bytes.create 65536) in
  let pos = ref 0 and len = ref 0 and lineno = ref 0 and eof = ref false in
  while not !eof do
    let j = newline !buf !pos !len in
    if j < !len then begin
      incr lineno;
      dispatch ~on_event ~on_trailer !lineno !buf !pos j;
      pos := j + 1
    end
    else begin
      (* No complete line left: keep the partial one and refill behind
         it, growing the buffer when the line fills it. *)
      let rest = !len - !pos in
      let dst =
        if rest = Bytes.length !buf then Bytes.create (2 * rest) else !buf
      in
      Bytes.blit !buf !pos dst 0 rest;
      buf := dst;
      pos := 0;
      len := rest;
      let n = input ic dst rest (Bytes.length dst - rest) in
      if n > 0 then len := rest + n
      else begin
        eof := true;
        if rest > 0 then begin
          incr lineno;
          dispatch ~on_event ~on_trailer !lineno dst 0 rest
        end
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

let read ic =
  let d = decoder () in
  let trace = Tracebuf.create () in
  let h = ref Journal.fnv_offset in
  scan_lines ic
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
              (Printf.sprintf
                 "trailer event count mismatch: trailer says %d, trace has %d"
                 events (Tracebuf.length trace));
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

let read_tolerant ic =
  let d = decoder () in
  let trace = Tracebuf.create () in
  let h = ref Journal.fnv_offset in
  let first_error = ref None in
  let dropped = ref 0 in
  let checksum = ref `Absent in
  scan_lines ic
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

let save path trace =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc trace)

let load path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic)

let load_tolerant path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_tolerant ic)
