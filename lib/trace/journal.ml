(* Append-only checksummed record journal. See the .mli for the wire
   format. Integrity is per record (the Trace_io trailer guards a whole
   file; a journal must stay readable after a mid-write kill), so each
   line carries the FNV-1a hash of its own tag, fields and payload. *)

let header = "# hawkset-journal 1"

type record = { tag : string; fields : string list; payload : string option }

(* FNV-1a 64: the one byte loop behind the journal's record sums, the
   Trace_io trailer and trace fingerprints. A [for] loop over a local
   accumulator, so the native compiler keeps [h] unboxed; a closure over
   an [Int64 ref] would box once per byte. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_fold h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  !h

let fnv_hex s = Printf.sprintf "%016Lx" (fnv_fold fnv_offset s)

(* The checksummed body: tokens joined by spaces, then the payload behind
   a separator no token can contain. *)
let body_string r =
  String.concat " " (r.tag :: r.fields)
  ^ (match r.payload with None -> "" | Some p -> "|" ^ p)

let is_token s =
  s <> ""
  && String.for_all (fun c -> Char.code c > 0x20 && Char.code c <> 0x7f) s

let validate r =
  if not (is_token r.tag) then
    invalid_arg (Printf.sprintf "Journal.add: bad tag %S" r.tag);
  List.iter
    (fun f ->
      if not (is_token f) then
        invalid_arg (Printf.sprintf "Journal.add: bad field %S" f))
    r.fields

type writer = { oc : out_channel }

let create path =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path in
  output_string oc header;
  output_char oc '\n';
  flush oc;
  { oc }

let append path =
  if not (Sys.file_exists path) then create path
  else begin
    let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
    { oc }
  end

let add w r =
  validate r;
  let plen = match r.payload with None -> -1 | Some p -> String.length p in
  output_string w.oc
    (Printf.sprintf "R %s %d%s %d %s\n" r.tag (List.length r.fields)
       (List.fold_left (fun acc f -> acc ^ " " ^ f) "" r.fields)
       plen
       (fnv_hex (body_string r)));
  (match r.payload with
  | None -> ()
  | Some p ->
      output_string w.oc p;
      output_char w.oc '\n');
  flush w.oc

let close w = close_out w.oc

type load_result = {
  l_records : record list;
  l_complete : bool;
  l_first_error : (int * string) option;
}

(* [take n xs] is [Some (first n, rest)] or [None] when [xs] is short. *)
let rec take n xs =
  if n = 0 then Some ([], xs)
  else
    match xs with
    | [] -> None
    | x :: tl -> (
        match take (n - 1) tl with
        | Some (pre, rest) -> Some (x :: pre, rest)
        | None -> None)

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lineno = ref 0 in
      let records = ref [] in
      let error = ref None in
      let fail l msg = error := Some (l, msg) in
      (match input_line ic with
      | l ->
          incr lineno;
          if String.trim l <> header then fail 1 "bad journal header"
      | exception End_of_file -> fail 0 "empty journal");
      (try
         while !error = None do
           match input_line ic with
           | exception End_of_file -> raise Exit
           | line -> (
               incr lineno;
               let t = String.trim line in
               if t = "" || t.[0] = '#' then ()
               else
                 let fields =
                   List.filter (fun s -> s <> "") (String.split_on_char ' ' t)
                 in
                 match fields with
                 | "R" :: tag :: n :: rest -> (
                     match int_of_string_opt n with
                     | None -> fail !lineno "bad field count"
                     | Some n when n < 0 -> fail !lineno "bad field count"
                     | Some n -> (
                         match take n rest with
                         | Some (fs, [ plen; sum ]) -> (
                             match int_of_string_opt plen with
                             | None -> fail !lineno "bad payload length"
                             | Some plen -> (
                                 let payload =
                                   if plen < 0 then Ok None
                                   else begin
                                     let buf = Bytes.create plen in
                                     match
                                       really_input ic buf 0 plen;
                                       (* the payload's trailing newline *)
                                       input_char ic
                                     with
                                     | '\n' ->
                                         incr lineno;
                                         Ok (Some (Bytes.to_string buf))
                                     | _ -> Error "payload not newline-terminated"
                                     | exception End_of_file ->
                                         Error "truncated payload"
                                   end
                                 in
                                 match payload with
                                 | Error msg -> fail !lineno msg
                                 | Ok payload ->
                                     let r = { tag; fields = fs; payload } in
                                     if fnv_hex (body_string r) <> sum then
                                       fail !lineno "record checksum mismatch"
                                     else records := r :: !records))
                         | Some _ | None ->
                             fail !lineno "malformed record line"))
                 | _ -> fail !lineno "malformed record line")
         done
       with Exit -> ());
      {
        l_records = List.rev !records;
        l_complete = !error = None;
        l_first_error = !error;
      })
