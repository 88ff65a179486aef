(* The evidence behind a report: the locksets and vector clocks of the
   witnessing (window, load) pair, resolved from the interning tables at
   report time. Locks are lock ids, clocks per-thread counters. *)
type witness = {
  wt_store_locks : int list;
  wt_eff_locks : int list;
  wt_load_locks : int list;
  wt_store_vec : int list;
  wt_end_vec : int list option;  (* None when the window never closed. *)
  wt_load_vec : int list;
}

type race = {
  store_site : Trace.Site.t;
  load_site : Trace.Site.t;
  store_tid : int;
  load_tid : int;
  addr : int;
  window_end : Access.end_kind;
  occurrences : int;
  witness : witness option;
}

type t = race list

let empty = []

(* Same "file:line" identity as {!Trace.Site.location} equality, compared
   field-wise: [add] runs once per race witness, and building the two
   location strings per comparison dominated its cost. *)
let same_site (a : Trace.Site.t) (b : Trace.Site.t) =
  a.Trace.Site.line = b.Trace.Site.line
  && String.equal a.Trace.Site.file b.Trace.Site.file

let same_pair r ~store_site ~load_site =
  same_site r.store_site store_site && same_site r.load_site load_site

let add ?witness t ~store_site ~load_site ~store_tid ~load_tid ~addr
    ~window_end =
  let rec go acc = function
    | [] ->
        (* The thunk is forced only for the first witnessing pair of a
           site pair — later occurrences merge without resolving it. *)
        List.rev
          ({ store_site; load_site; store_tid; load_tid; addr; window_end;
             occurrences = 1; witness = Option.map (fun f -> f ()) witness }
          :: acc)
    | r :: rest when same_pair r ~store_site ~load_site ->
        let r =
          if Fault.on Fault.Last_witness_wins then
            { r with store_tid; load_tid; addr; window_end;
              witness = Option.map (fun f -> f ()) witness }
          else r
        in
        List.rev_append acc ({ r with occurrences = r.occurrences + 1 } :: rest)
    | r :: rest -> go (r :: acc) rest
  in
  go [] t

let count = List.length

let sorted t =
  List.sort
    (fun a b ->
      let c =
        String.compare
          (Trace.Site.location a.store_site)
          (Trace.Site.location b.store_site)
      in
      if c <> 0 then c
      else
        String.compare
          (Trace.Site.location a.load_site)
          (Trace.Site.location b.load_site))
    t

(* The schedule-insensitive projection of a report set: sorted distinct
   (store location, load location) pairs. Occurrence counts, thread ids,
   addresses and witnesses all legitimately vary across interleavings;
   the site-pair set is what HawkSet claims is stable (Table 3). *)
let canonical t =
  List.map
    (fun r ->
      (Trace.Site.location r.store_site, Trace.Site.location r.load_site))
    (sorted t)

(* Set difference of two canonical lists ([canonical] yields each pair
   once, so list subtraction is set subtraction). *)
let canonical_diff ~expected ~actual =
  let missing = List.filter (fun p -> not (List.mem p actual)) expected in
  let extra = List.filter (fun p -> not (List.mem p expected)) actual in
  (missing, extra)

let mem t ~store_loc ~load_loc =
  List.exists
    (fun r ->
      String.equal (Trace.Site.location r.store_site) store_loc
      && String.equal (Trace.Site.location r.load_site) load_loc)
    t

let end_kind_str = function
  | Access.Persisted_same_thread -> "persist outside atomic section"
  | Access.Persisted_other_thread -> "persisted by another thread"
  | Access.Overwritten_same_thread -> "overwritten before persist"
  | Access.Overwritten_other_thread -> "overwritten by another thread"
  | Access.Open_at_exit -> "never persisted"

let pp_int_set ~opening ~closing ppf xs =
  Format.fprintf ppf "%s%a%s" opening
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    xs closing

let pp_witness ppf w =
  let locks = pp_int_set ~opening:"{" ~closing:"}" in
  let vec = pp_int_set ~opening:"(" ~closing:")" in
  Format.fprintf ppf
    "@[<v 2>witness:@,\
     store lockset     %a@,\
     effective lockset %a@,\
     load lockset      %a@,\
     store vclock      %a@,\
     window-end vclock %a@,\
     load vclock       %a@]"
    locks w.wt_store_locks locks w.wt_eff_locks locks w.wt_load_locks vec
    w.wt_store_vec
    (fun ppf -> function
      | Some v -> vec ppf v
      | None -> Format.pp_print_string ppf "open (never persisted)")
    w.wt_end_vec vec w.wt_load_vec

let pp_race ppf r =
  Format.fprintf ppf
    "@[<v 2>persistency-induced race (%s, %d occurrence%s):@,\
     store T%d @ %a@,load  T%d @ %a@]"
    (end_kind_str r.window_end) r.occurrences
    (if r.occurrences = 1 then "" else "s")
    r.store_tid Trace.Site.pp_backtrace r.store_site r.load_tid
    Trace.Site.pp_backtrace r.load_site

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let site_json (s : Trace.Site.t) =
  Printf.sprintf {|{"file":"%s","line":%d,"frames":[%s]}|}
    (json_escape s.Trace.Site.file)
    s.Trace.Site.line
    (String.concat ","
       (List.map (fun f -> "\"" ^ json_escape f ^ "\"") s.Trace.Site.frames))

let end_kind_json = function
  | Access.Persisted_same_thread -> "persisted_same_thread"
  | Access.Persisted_other_thread -> "persisted_other_thread"
  | Access.Overwritten_same_thread -> "overwritten_same_thread"
  | Access.Overwritten_other_thread -> "overwritten_other_thread"
  | Access.Open_at_exit -> "never_persisted"

let int_list_json xs =
  "[" ^ String.concat "," (List.map string_of_int xs) ^ "]"

let witness_json = function
  | None -> "null"
  | Some w ->
      Printf.sprintf
        {|{"store_lockset":%s,"effective_lockset":%s,"load_lockset":%s,"store_vclock":%s,"window_end_vclock":%s,"load_vclock":%s}|}
        (int_list_json w.wt_store_locks)
        (int_list_json w.wt_eff_locks)
        (int_list_json w.wt_load_locks)
        (int_list_json w.wt_store_vec)
        (match w.wt_end_vec with
        | Some v -> int_list_json v
        | None -> "null")
        (int_list_json w.wt_load_vec)

let to_json t =
  "["
  ^ String.concat ","
      (List.map
         (fun r ->
           Printf.sprintf
             {|{"store":%s,"load":%s,"store_tid":%d,"load_tid":%d,"addr":%d,"window_end":"%s","occurrences":%d,"witness":%s}|}
             (site_json r.store_site) (site_json r.load_site) r.store_tid
             r.load_tid r.addr (end_kind_json r.window_end) r.occurrences
             (witness_json r.witness))
         (sorted t))
  ^ "]"

let pp ppf t =
  match sorted t with
  | [] -> Format.fprintf ppf "no persistency-induced races detected"
  | races ->
      Format.fprintf ppf "@[<v>%a@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_race)
        races
