(* The executable specification: stages 1-3 transcribed naively.

   Everything here favors auditability over speed: association lists
   instead of interners, linear scans instead of packed-key sets, whole
   values instead of ids, quadratic loops instead of memo tables. The
   production pipeline (Collector + Analysis) must produce a
   byte-identical [Report.to_json] on every trace; [hawkset check] pits
   the two against each other on generated traces.

   Because it is the oracle, this module must not share the production
   kernel's optimization machinery — and must never consult {!Fault}: a
   seeded kernel fault that corrupted both sides identically would be
   invisible to the differential runner. The only modules it leans on are
   the value-level primitives ({!Lockset}, {!Vclock}, {!Report} record
   construction, {!Pmem.Layout} geometry) whose own algebra is covered by
   dedicated property tests. *)

type config = {
  irh : bool;
  effective_lockset : bool;
  timestamps : bool;
  vector_clocks : bool;
  eadr : bool;
}

let default_config =
  { irh = true; effective_lockset = true; timestamps = true;
    vector_clocks = true; eadr = false }

let config_of_pipeline (c : Pipeline.config) =
  { irh = c.Pipeline.irh; effective_lockset = c.Pipeline.effective_lockset;
    timestamps = c.Pipeline.timestamps;
    vector_clocks = c.Pipeline.vector_clocks; eadr = c.Pipeline.eadr }

(* ------------------------------------------------------------------ *)
(* Stage 1-2 state: memory simulation, lock tracking, thread tracking  *)
(* ------------------------------------------------------------------ *)

(* Store metadata, by value: the full byte range, the site, the
   timestamped lockset and the vector clock at store time. *)
type smeta = {
  s_tid : int;
  s_addr : int;
  s_size : int;
  s_site : Trace.Site.t;
  s_ls : Lockset.t; (* with timestamps *)
  s_vec : Vclock.t;
}

(* One open store window, clamped to one word ([e_lo], [e_hi)). *)
type sentry = {
  e_meta : smeta;
  e_word : int;
  e_lo : int;
  e_hi : int;
  mutable e_flushers : int list; (* tids whose flush covers this entry *)
  mutable e_closed : bool;
}

(* An emitted window record (production: {!Access.window}). *)
type swindow = {
  w_meta : smeta;
  w_eff : Lockset.t; (* stripped *)
  w_end_vec : Vclock.t option;
  w_end : Access.end_kind;
}

(* An emitted load record (production: {!Access.load}). *)
type sload = {
  l_tid : int;
  l_addr : int;
  l_size : int;
  l_site : Trace.Site.t;
  l_ls : Lockset.t; (* stripped *)
  l_vec : Vclock.t;
}

(* The production dedup keys, as whole values. Interner ids are injective
   by value (locksets via {!Lockset.equal}, clocks via {!Vclock.equal},
   sites via {!Trace.Site.equal}), so comparing the values themselves is
   exactly the packed / tuple key comparison. *)
type wkey = {
  wk_tid : int;
  wk_site : Trace.Site.t;
  wk_eff : Lockset.t; (* stripped *)
  wk_vec : Vclock.t;
  wk_end_vec : Vclock.t option;
  wk_kind : Access.end_kind;
}

type lkey = {
  lk_tid : int;
  lk_site : Trace.Site.t;
  lk_ls : Lockset.t; (* stripped *)
  lk_vec : Vclock.t;
}

let wkey_equal a b =
  a.wk_tid = b.wk_tid
  && Trace.Site.equal a.wk_site b.wk_site
  && Lockset.equal a.wk_eff b.wk_eff
  && Vclock.equal a.wk_vec b.wk_vec
  && (match (a.wk_end_vec, b.wk_end_vec) with
     | None, None -> true
     | Some x, Some y -> Vclock.equal x y
     | None, Some _ | Some _, None -> false)
  && a.wk_kind = b.wk_kind

let lkey_equal a b =
  a.lk_tid = b.lk_tid
  && Trace.Site.equal a.lk_site b.lk_site
  && Lockset.equal a.lk_ls b.lk_ls
  && Vclock.equal a.lk_vec b.lk_vec

(* §3.1.3 publication state of a word. *)
type pub = Published | First_touch of int

type sword = {
  sw_word : int;
  mutable sw_pub : pub;
  mutable sw_open : sentry list; (* newest-first *)
  mutable sw_windows : swindow list; (* newest-first *)
  mutable sw_loads : sload list; (* newest-first *)
  mutable sw_wkeys : wkey list;
  mutable sw_lkeys : lkey list;
}

type sthread = {
  mutable t_ls : Lockset.t;
  mutable t_acq : int;
  mutable t_vec : Vclock.t;
  mutable t_dirty : bool; (* batched own-component tick pending *)
  mutable t_pending : sentry list; (* newest-first *)
}

type state = {
  cfg : config;
  mutable threads : (int * sthread) list;
  word_cells : (int, sword) Hashtbl.t; (* word index -> its cell *)
  mutable words : sword list; (* newest-first *)
}

let fresh_thread () =
  (* A fresh thread has a batched tick pending: its first PM access gives
     it a non-zero own component. *)
  { t_ls = Lockset.empty; t_acq = 0; t_vec = Vclock.zero; t_dirty = true;
    t_pending = [] }

let thread st tid =
  let tid = Trace.Tid.to_int tid in
  match List.assoc_opt tid st.threads with
  | Some th -> th
  | None ->
      let th = fresh_thread () in
      st.threads <- st.threads @ [ (tid, th) ];
      th

(* Lazy vector-clock tick, consumed by the first PM access (store, load,
   flush or fence — not lock operations) after create/join. *)
let touch st tid =
  let th = thread st tid in
  if th.t_dirty then begin
    th.t_vec <- Vclock.tick th.t_vec (Trace.Tid.to_int tid);
    th.t_dirty <- false
  end;
  th

let lookup_word st word = Hashtbl.find_opt st.word_cells word

(* Find-or-create, folding in the publication update: a word becomes
   published at its first access by a second thread. *)
let get_word st word ~tid =
  match lookup_word st word with
  | Some w ->
      (match w.sw_pub with
      | First_touch t when t <> tid -> w.sw_pub <- Published
      | First_touch _ | Published -> ());
      w
  | None ->
      let w =
        { sw_word = word; sw_pub = First_touch tid; sw_open = [];
          sw_windows = []; sw_loads = []; sw_wkeys = []; sw_lkeys = [] }
      in
      Hashtbl.add st.word_cells word w;
      st.words <- w :: st.words;
      w

let effective_lockset st (m : smeta) ~closer_tid ~closer_ls =
  if m.s_tid = closer_tid then
    if st.cfg.timestamps then Lockset.inter_same_thread m.s_ls closer_ls
    else Lockset.inter_same_thread_no_ts m.s_ls closer_ls
  else Lockset.empty

(* Emit a window record unless an identical one (same production dedup
   key) already exists for this word. *)
let emit_window w (m : smeta) ~eff ~end_vec ~kind =
  let key =
    { wk_tid = m.s_tid; wk_site = m.s_site; wk_eff = Lockset.strip_ts eff;
      wk_vec = m.s_vec; wk_end_vec = end_vec; wk_kind = kind }
  in
  if not (List.exists (wkey_equal key) w.sw_wkeys) then begin
    w.sw_wkeys <- key :: w.sw_wkeys;
    w.sw_windows <-
      { w_meta = m; w_eff = Lockset.strip_ts eff; w_end_vec = end_vec;
        w_end = kind }
      :: w.sw_windows
  end

(* Close a window. IRH: a store explicitly persisted while its word is
   still unpublished happened during initialization and is discarded. *)
let close st w (e : sentry) ~eff ~end_vec ~kind =
  e.e_closed <- true;
  let persisted =
    match kind with
    | Access.Persisted_same_thread | Access.Persisted_other_thread -> true
    | Access.Overwritten_same_thread | Access.Overwritten_other_thread
    | Access.Open_at_exit ->
        false
  in
  if st.cfg.irh && persisted && w.sw_pub <> Published then ()
  else emit_window w e.e_meta ~eff ~end_vec ~kind

let on_store st ~tid ~addr ~size ~site =
  let th = touch st tid in
  let itid = Trace.Tid.to_int tid in
  if st.cfg.eadr then
    (* eADR: durable on visibility — only publication updates. *)
    Pmem.Layout.iter_words addr size (fun word ->
        ignore (get_word st word ~tid:itid : sword))
  else begin
    let m =
      { s_tid = itid; s_addr = addr; s_size = size; s_site = site;
        s_ls = th.t_ls; s_vec = th.t_vec }
    in
    Pmem.Layout.iter_words addr size (fun word ->
        let w = get_word st word ~tid:itid in
        (* Overwrite: close every open entry of this word whose byte
           subrange the new store overlaps. *)
        List.iter
          (fun e ->
            if
              (not e.e_closed)
              && Pmem.Layout.ranges_overlap e.e_lo (e.e_hi - e.e_lo) addr size
            then
              let kind =
                if e.e_meta.s_tid = itid then Access.Overwritten_same_thread
                else Access.Overwritten_other_thread
              in
              close st w e
                ~eff:(effective_lockset st e.e_meta ~closer_tid:itid
                        ~closer_ls:th.t_ls)
                ~end_vec:(Some th.t_vec) ~kind)
          w.sw_open;
        w.sw_open <- List.filter (fun e -> not e.e_closed) w.sw_open;
        let wlo = word * Pmem.Layout.word_size in
        let whi = wlo + Pmem.Layout.word_size in
        let e =
          { e_meta = m; e_word = word; e_lo = max addr wlo;
            e_hi = min (addr + size) whi; e_flushers = []; e_closed = false }
        in
        w.sw_open <- e :: w.sw_open)
  end

let on_load st ~tid ~addr ~size ~site =
  let th = touch st tid in
  let itid = Trace.Tid.to_int tid in
  (* Gather the word cells in address order; the publication update of
     this very access participates in the IRH keep decision. *)
  let cells = ref [] in
  Pmem.Layout.iter_words addr size (fun word ->
      cells := get_word st word ~tid:itid :: !cells);
  let cells = List.rev !cells in
  let any_pub = List.exists (fun w -> w.sw_pub = Published) cells in
  let keep = (not st.cfg.irh) || any_pub in
  if keep then begin
    let ls = Lockset.strip_ts th.t_ls in
    let record =
      { l_tid = itid; l_addr = addr; l_size = size; l_site = site; l_ls = ls;
        l_vec = th.t_vec }
    in
    let key =
      { lk_tid = itid; lk_site = site; lk_ls = ls; lk_vec = th.t_vec }
    in
    List.iter
      (fun w ->
        if not (List.exists (lkey_equal key) w.sw_lkeys) then begin
          w.sw_lkeys <- key :: w.sw_lkeys;
          w.sw_loads <- record :: w.sw_loads
        end)
      cells
  end

let on_flush st ~tid ~line =
  let th = touch st tid in
  let itid = Trace.Tid.to_int tid in
  let first_word = line / Pmem.Layout.word_size in
  let words_per_line = Pmem.Layout.line_size / Pmem.Layout.word_size in
  for word = first_word to first_word + words_per_line - 1 do
    match lookup_word st word with
    | None -> ()
    | Some w ->
        List.iter
          (fun e ->
            if (not e.e_closed) && not (List.mem itid e.e_flushers) then begin
              e.e_flushers <- itid :: e.e_flushers;
              th.t_pending <- e :: th.t_pending
            end)
          w.sw_open
  done

let on_fence st ~tid =
  let th = touch st tid in
  let itid = Trace.Tid.to_int tid in
  if th.t_pending <> [] then begin
    let vec = th.t_vec in
    (* Newest-first close order (the list is consed). *)
    List.iter
      (fun e ->
        if (not e.e_closed) && List.mem itid e.e_flushers then
          let kind =
            if e.e_meta.s_tid = itid then Access.Persisted_same_thread
            else Access.Persisted_other_thread
          in
          match lookup_word st e.e_word with
          | Some w ->
              close st w e
                ~eff:(effective_lockset st e.e_meta ~closer_tid:itid
                        ~closer_ls:th.t_ls)
                ~end_vec:(Some vec) ~kind
          | None -> assert false (* the entry's word always exists *))
      th.t_pending;
    th.t_pending <- []
  end

let on_acquire st ~tid ~lock =
  let th = thread st tid in
  th.t_acq <- th.t_acq + 1;
  th.t_ls <- Lockset.acquire th.t_ls lock ~ts:th.t_acq

let on_release st ~tid ~lock =
  let th = thread st tid in
  th.t_ls <- Lockset.release th.t_ls lock

let on_create st ~parent ~child =
  let p = thread st parent in
  p.t_vec <- Vclock.tick p.t_vec (Trace.Tid.to_int parent);
  p.t_dirty <- true;
  let c = thread st child in
  c.t_vec <- Vclock.tick p.t_vec (Trace.Tid.to_int child);
  c.t_dirty <- true

let on_join st ~waiter ~joined =
  let j = thread st joined in
  let w = thread st waiter in
  w.t_vec <- Vclock.merge w.t_vec j.t_vec;
  w.t_dirty <- true

let finalize st =
  (* Windows still open at trace end never persisted: empty effective
     lockset, no closing clock, and the IRH keeps them. Words in creation
     order, entries newest-first. *)
  List.iter
    (fun w ->
      List.iter
        (fun e ->
          if not e.e_closed then
            close st w e ~eff:Lockset.empty ~end_vec:None
              ~kind:Access.Open_at_exit)
        w.sw_open)
    (List.rev st.words)

(* ------------------------------------------------------------------ *)
(* Stage 3: PM-aware lockset analysis (Algorithm 1)                    *)
(* ------------------------------------------------------------------ *)

let same_loc (a : Trace.Site.t) (b : Trace.Site.t) =
  a.Trace.Site.line = b.Trace.Site.line
  && String.equal a.Trace.Site.file b.Trace.Site.file

(* Report aggregation, replicated rather than delegated to {!Report.add}:
   merge by (store location, load location), occurrences count witnessing
   pairs, and the first witnessing pair's evidence wins. *)
let add_race races ~store_site ~load_site ~store_tid ~load_tid ~addr
    ~window_end ~witness =
  let rec go = function
    | [] ->
        [ { Report.store_site; load_site; store_tid; load_tid; addr;
            window_end; occurrences = 1; witness = Some (witness ()) } ]
    | (r : Report.race) :: rest
      when same_loc r.Report.store_site store_site
           && same_loc r.Report.load_site load_site ->
        { r with Report.occurrences = r.Report.occurrences + 1 } :: rest
    | r :: rest -> r :: go rest
  in
  go races

(* Line 13-19 of Algorithm 1 over one word's records, in the production
   visit order: loads outer (newest-first), windows inner (newest-first).
   A (window, load) pair sharing several words is examined only at its
   canonical word — the word of the higher start address. *)
let analyse_word cfg word races =
  let races = ref races in
  List.iter
    (fun (l : sload) ->
      List.iter
        (fun (w : swindow) ->
          let m = w.w_meta in
          let canonical = Pmem.Layout.word_index (max m.s_addr l.l_addr) in
          if
            canonical = word.sw_word
            && m.s_tid <> l.l_tid (* line 16 *)
            && Pmem.Layout.ranges_overlap m.s_addr m.s_size l.l_addr l.l_size
               (* line 15 *)
          then begin
            let concurrent (* line 17: the load falls inside the window *) =
              (not cfg.vector_clocks)
              || (not (Vclock.leq l.l_vec m.s_vec))
                 &&
                 match w.w_end_vec with
                 | None -> true
                 | Some e -> not (Vclock.leq e l.l_vec)
            in
            if concurrent then begin
              let store_ls =
                if cfg.effective_lockset then w.w_eff
                else Lockset.strip_ts m.s_ls
              in
              (* line 18: st.effective_set ∩ ld.set = ∅ *)
              if Lockset.disjoint_locks store_ls l.l_ls then begin
                let witness () =
                  let locks ls =
                    List.map Trace.Lock_id.to_int (Lockset.locks ls)
                  in
                  { Report.wt_store_locks = locks m.s_ls;
                    wt_eff_locks = locks w.w_eff;
                    wt_load_locks = locks l.l_ls;
                    wt_store_vec = Vclock.to_list m.s_vec;
                    wt_end_vec = Option.map Vclock.to_list w.w_end_vec;
                    wt_load_vec = Vclock.to_list l.l_vec }
                in
                races :=
                  add_race !races ~store_site:m.s_site ~load_site:l.l_site
                    ~store_tid:m.s_tid ~load_tid:l.l_tid
                    ~addr:(max m.s_addr l.l_addr) ~window_end:w.w_end ~witness
              end
            end
          end)
        word.sw_windows)
    word.sw_loads;
  !races

let analyse_words cfg words =
  (* Words ascending; only words with at least one load record are
     analysis slots, and slots without windows pair nothing. *)
  let slots =
    List.sort
      (fun a b -> Int.compare a.sw_word b.sw_word)
      (List.filter (fun w -> w.sw_loads <> []) words)
  in
  List.fold_left (fun races w -> analyse_word cfg w races) Report.empty slots

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let pipeline ?(config = default_config) ?event_budget trace =
  let trace =
    match event_budget with
    | Some budget when Trace.Tracebuf.length trace > budget ->
        Trace.Tracebuf.prefix trace budget
    | Some _ | None -> trace
  in
  let st =
    { cfg = config; threads = []; word_cells = Hashtbl.create 1024;
      words = [] }
  in
  Trace.Tracebuf.iter
    (fun ev ->
      match ev with
      | Trace.Event.Store { tid; addr; size; site; non_temporal = _ } ->
          on_store st ~tid ~addr ~size ~site
      | Trace.Event.Load { tid; addr; size; site } ->
          on_load st ~tid ~addr ~size ~site
      | Trace.Event.Flush { tid; line; kind = _; site = _ } ->
          on_flush st ~tid ~line
      | Trace.Event.Fence { tid; site = _ } -> on_fence st ~tid
      | Trace.Event.Lock_acquire { tid; lock; site = _ } ->
          on_acquire st ~tid ~lock
      | Trace.Event.Lock_release { tid; lock; site = _ } ->
          on_release st ~tid ~lock
      | Trace.Event.Thread_create { parent; child } ->
          on_create st ~parent ~child
      | Trace.Event.Thread_join { waiter; joined } ->
          on_join st ~waiter ~joined)
    trace;
  finalize st;
  analyse_words config st.words

(* Stage 3 alone, on production-collected records: the same naive pair
   loop reading the per-word arrays (already words-ascending with
   newest-first records) through the interning tables. *)
let analyse ?(config = default_config) (c : Collector.result) =
  let tables = c.Collector.tables in
  let vec id = Access.Vc_table.get tables.Access.vc id in
  let ls id = Access.Ls_table.get tables.Access.ls id in
  let races = ref Report.empty in
  Array.iteri
    (fun wi word ->
      let loads = c.Collector.loads_of.(wi) in
      let windows = c.Collector.windows_of.(wi) in
      if Array.length loads > 0 && Array.length windows > 0 then
        Array.iter
          (fun (l : Access.load) ->
            Array.iter
              (fun (w : Access.window) ->
                let canonical =
                  Pmem.Layout.word_index (max w.Access.w_addr l.Access.l_addr)
                in
                if
                  canonical = word
                  && w.Access.w_tid <> l.Access.l_tid
                  && Pmem.Layout.ranges_overlap w.Access.w_addr
                       w.Access.w_size l.Access.l_addr l.Access.l_size
                then begin
                  let concurrent =
                    (not config.vector_clocks)
                    || (not
                          (Vclock.leq (vec l.Access.l_vec)
                             (vec w.Access.w_store_vec)))
                       &&
                       match w.Access.w_end_vec with
                       | None -> true
                       | Some e ->
                           not (Vclock.leq (vec e) (vec l.Access.l_vec))
                  in
                  if concurrent then
                    let store_ls =
                      if config.effective_lockset then ls w.Access.w_eff
                      else ls w.Access.w_store_ls
                    in
                    if Lockset.disjoint_locks store_ls (ls l.Access.l_ls)
                    then begin
                      let witness () =
                        let locks id =
                          List.map Trace.Lock_id.to_int
                            (Lockset.locks (ls id))
                        in
                        let ivec id = Vclock.to_list (vec id) in
                        { Report.wt_store_locks = locks w.Access.w_store_ls;
                          wt_eff_locks = locks w.Access.w_eff;
                          wt_load_locks = locks l.Access.l_ls;
                          wt_store_vec = ivec w.Access.w_store_vec;
                          wt_end_vec = Option.map ivec w.Access.w_end_vec;
                          wt_load_vec = ivec l.Access.l_vec }
                      in
                      races :=
                        add_race !races ~store_site:w.Access.w_site
                          ~load_site:l.Access.l_site
                          ~store_tid:w.Access.w_tid ~load_tid:l.Access.l_tid
                          ~addr:(max w.Access.w_addr l.Access.l_addr)
                          ~window_end:w.Access.w_end ~witness
                    end
                end)
              windows)
          loads)
    c.Collector.words;
  !races
