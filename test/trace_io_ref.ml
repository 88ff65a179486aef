(* The trace codec as it stood before the scanner-based one in
   [Trace.Trace_io]: fields split with [String.split_on_char], lines
   printed with [Printf], and the trailer hash folded over each printed
   line. Kept as the reference the differential tests in [test_trace]
   hold the production codec to. Two changes: a line of a known tag
   with too few fields (or a [C]/[J] line with too many) reports the
   expected and actual field count, where this codec used to fall
   through to "unknown event tag"; and a negative thread or lock id is a
   parse error, where it used to raise [Invalid_argument]. *)

open Trace

exception Parse_error = Trace_io.Parse_error

(* Sites: "<file>:<line>" plus an optional ";"-joined frame list. File
   names may not contain spaces, ':' is split from the right. *)
let site_to_string (s : Site.t) =
  let base = Printf.sprintf "%s:%d" s.Site.file s.Site.line in
  match s.Site.frames with
  | [] -> base
  | frames -> base ^ " " ^ String.concat ";" frames

(* [err] must be let-bound inside (a function parameter would be
   monomorphic and is used at several types). *)
let site_of_fields ~lineno fields =
  let err msg = raise (Parse_error (lineno, msg)) in
  match fields with
  | [] -> err "missing site"
  | locstr :: rest ->
      let file, line =
        match String.rindex_opt locstr ':' with
        | None -> err "site has no ':'"
        | Some i -> (
            let file = String.sub locstr 0 i in
            let l = String.sub locstr (i + 1) (String.length locstr - i - 1) in
            match int_of_string_opt l with
            | Some n -> (file, n)
            | None -> err "bad line number")
      in
      let frames =
        match rest with
        | [] -> []
        | [ fs ] -> String.split_on_char ';' fs
        | _ :: _ :: _ -> err "trailing fields"
      in
      Site.v ~frames file line

let flush_kind_to_string = function
  | Event.Clwb -> "clwb"
  | Event.Clflushopt -> "clflushopt"
  | Event.Clflush -> "clflush"

let flush_kind_of_string ~lineno = function
  | "clwb" -> Event.Clwb
  | "clflushopt" -> Event.Clflushopt
  | "clflush" -> Event.Clflush
  | s -> raise (Parse_error (lineno, Printf.sprintf "unknown flush kind %S" s))

let event_to_line ev =
  let t tid = string_of_int (Tid.to_int tid) in
  match ev with
  | Event.Store { tid; addr; size; site; non_temporal } ->
      Printf.sprintf "S %s %d %d %d %s" (t tid) addr size
        (if non_temporal then 1 else 0)
        (site_to_string site)
  | Event.Load { tid; addr; size; site } ->
      Printf.sprintf "L %s %d %d %s" (t tid) addr size (site_to_string site)
  | Event.Flush { tid; line; kind; site } ->
      Printf.sprintf "F %s %d %s %s" (t tid) line (flush_kind_to_string kind)
        (site_to_string site)
  | Event.Fence { tid; site } ->
      Printf.sprintf "M %s %s" (t tid) (site_to_string site)
  | Event.Lock_acquire { tid; lock; site } ->
      Printf.sprintf "A %s %d %s" (t tid) (Lock_id.to_int lock)
        (site_to_string site)
  | Event.Lock_release { tid; lock; site } ->
      Printf.sprintf "R %s %d %s" (t tid) (Lock_id.to_int lock)
        (site_to_string site)
  | Event.Thread_create { parent; child } ->
      Printf.sprintf "C %s %s" (t parent) (t child)
  | Event.Thread_join { waiter; joined } ->
      Printf.sprintf "J %s %s" (t waiter) (t joined)

let event_of_line_at lineno line =
  let err msg = raise (Parse_error (lineno, msg)) in
  let int s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> err (Printf.sprintf "expected integer, got %S" s)
  in
  let id what s =
    let v = int s in
    if v < 0 then err (Printf.sprintf "negative %s %d" what v);
    v
  in
  let tid s = Tid.of_int (id "thread id" s) in
  let lock s = Lock_id.of_int (id "lock id" s) in
  let fields =
    List.filter (fun s -> s <> "") (String.split_on_char ' ' line)
  in
  match fields with
  | "S" :: t :: addr :: size :: nt :: site ->
      Event.Store
        {
          tid = tid t;
          addr = int addr;
          size = int size;
          non_temporal = int nt <> 0;
          site = site_of_fields ~lineno site;
        }
  | "L" :: t :: addr :: size :: site ->
      Event.Load
        { tid = tid t; addr = int addr; size = int size;
          site = site_of_fields ~lineno site }
  | "F" :: t :: line_addr :: kind :: site ->
      Event.Flush
        {
          tid = tid t;
          line = int line_addr;
          kind = flush_kind_of_string ~lineno kind;
          site = site_of_fields ~lineno site;
        }
  | "M" :: t :: site -> Event.Fence { tid = tid t; site = site_of_fields ~lineno site }
  | "A" :: t :: l :: site ->
      Event.Lock_acquire
        { tid = tid t; lock = lock l;
          site = site_of_fields ~lineno site }
  | "R" :: t :: l :: site ->
      Event.Lock_release
        { tid = tid t; lock = lock l;
          site = site_of_fields ~lineno site }
  | [ "C"; parent; child ] ->
      Event.Thread_create { parent = tid parent; child = tid child }
  | [ "J"; waiter; joined ] ->
      Event.Thread_join { waiter = tid waiter; joined = tid joined }
  | ("C" | "J") :: rest ->
      err
        (Printf.sprintf "%S expects 2 fields, got %d" (List.hd fields)
           (List.length rest))
  | (("S" | "L" | "F" | "M" | "A" | "R") as tag) :: rest ->
      let n =
        match tag with "S" -> 4 | "L" | "F" -> 3 | "M" -> 1 | _ -> 2
      in
      err
        (Printf.sprintf "%S expects %d field%s and a site, got %d" tag n
           (if n = 1 then "" else "s")
           (List.length rest))
  | tag :: _ -> err (Printf.sprintf "unknown event tag %S" tag)
  | [] -> err "empty line"

let event_of_line line = event_of_line_at 0 line

(* ---- checksum trailer ----

   [write] appends "# trailer events=<n> fnv1a=<16-hex>" after the last
   event: an FNV-1a 64-bit hash of the canonical serialization of every
   event (each [event_to_line ev] followed by '\n'). Readers re-hash the
   canonical form of each *parsed* event, so verification is independent
   of insignificant whitespace but catches content corruption. Being a
   comment line, the trailer is invisible to pre-trailer readers. *)

let fnv_offset = Journal.fnv_offset

(* One serialized line: its bytes, then the trailing '\n'. *)
let fnv1a_string h s = Journal.fnv_fold (Journal.fnv_fold h s) "\n"

(* The same hash the trailer records, computed in memory: a 16-hex-digit
   schedule signature. Two traces fingerprint equal iff their canonical
   serializations are byte-identical. *)
let fingerprint trace =
  let hash = ref fnv_offset in
  Tracebuf.iter (fun ev -> hash := fnv1a_string !hash (event_to_line ev)) trace;
  Printf.sprintf "%016Lx" !hash

let trailer_tag = "# trailer "

(* [Some (events, hash)] when [trimmed] is a well-formed trailer,
   [None] when it is some other comment. A line that starts with the
   trailer tag but does not scan is reported as malformed. *)
let parse_trailer trimmed =
  if not (String.length trimmed >= String.length trailer_tag
          && String.sub trimmed 0 (String.length trailer_tag) = trailer_tag)
  then Ok None
  else
    match
      Scanf.sscanf_opt trimmed "# trailer events=%d fnv1a=%Lx%!" (fun n h ->
          (n, h))
    with
    | Some (n, h) -> Ok (Some (n, h))
    | None -> Error "malformed trailer"

(* Shared scanning loop. [on_event lineno trimmed] may raise (strict) or
   record-and-stop (tolerant); [on_trailer lineno result] decides what a
   (possibly malformed) trailer means. *)
let scan_lines ic ~on_event ~on_trailer =
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       let trimmed = String.trim line in
       if trimmed <> "" then
         if trimmed.[0] = '#' then on_trailer !lineno (parse_trailer trimmed)
         else on_event !lineno trimmed
     done
   with End_of_file -> ());
  !lineno

let read ic =
  let trace = Tracebuf.create () in
  let hash = ref fnv_offset in
  let _lines =
    scan_lines ic
      ~on_event:(fun lineno trimmed ->
        let ev = event_of_line_at lineno trimmed in
        hash := fnv1a_string !hash (event_to_line ev);
        Tracebuf.push trace ev)
      ~on_trailer:(fun lineno -> function
        | Ok None -> ()
        | Error msg -> raise (Parse_error (lineno, msg))
        | Ok (Some (events, h)) ->
            if events <> Tracebuf.length trace then
              raise
                (Parse_error
                   ( lineno,
                     Printf.sprintf
                       "trailer event count mismatch: trailer says %d, trace \
                        has %d"
                       events (Tracebuf.length trace) ));
            if h <> !hash then
              raise
                (Parse_error
                   ( lineno,
                     Printf.sprintf
                       "trailer checksum mismatch: trailer says %016Lx, \
                        events hash to %016Lx"
                       h !hash )))
  in
  trace

let read_tolerant ic =
  let trace = Tracebuf.create () in
  let hash = ref fnv_offset in
  let first_error = ref None in
  let dropped = ref 0 in
  let checksum = ref `Absent in
  let _lines =
    scan_lines ic
      ~on_event:(fun lineno trimmed ->
        match !first_error with
        | Some _ -> incr dropped
        | None -> (
            match event_of_line_at lineno trimmed with
            | ev ->
                hash := fnv1a_string !hash (event_to_line ev);
                Tracebuf.push trace ev
            | exception Parse_error (l, msg) ->
                first_error := Some (l, msg);
                incr dropped))
      ~on_trailer:(fun lineno -> function
        | Ok None -> ()
        | Error _ ->
            ignore lineno;
            checksum := `Mismatch
        | Ok (Some (events, h)) ->
            checksum :=
              if events = Tracebuf.length trace && h = !hash then `Verified
              else `Mismatch)
  in
  {
    Trace_io.salvaged = trace;
    salvaged_events = Tracebuf.length trace;
    dropped_lines = !dropped;
    first_error = !first_error;
    checksum = !checksum;
  }
