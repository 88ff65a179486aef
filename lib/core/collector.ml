type stats = {
  c_events : int;
  c_stores : int;
  c_loads : int;
  c_windows : int;
  c_windows_opened : int;
  c_windows_closed : int;
  c_load_records : int;
  c_irh_discarded_stores : int;
  c_irh_discarded_loads : int;
  c_locksets : int;
  c_vclocks : int;
  c_words : int;
}

type result = {
  tables : Access.tables;
  words : int array;
  windows_of : Access.window array array;
  loads_of : Access.load array array;
  slots : int array;
  stats : stats;
}

(* Per-thread tracking state (Lock Tracking + Thread Tracking components).
   [ls_id]/[vec_id] cache the interned id of the current (stripped)
   lockset / vector clock so the per-event hot paths intern — i.e. hash a
   whole array — only when the value actually changed; -1 means stale. *)
type thread_state = {
  mutable ls : Lockset.t;
  mutable ls_id : int;
  mutable acq_clock : int; (* logical clock, ticks at each acquisition *)
  mutable vec : Vclock.t;
  mutable vec_id : int;
  mutable vc_dirty : bool; (* batched vector-clock increment pending *)
  pending : pending_vec;
}

(* Store metadata shared by the per-word open entries of one store. *)
and meta = {
  m_tid : int;
  m_addr : int;
  m_size : int;
  m_site_id : int;
  m_ls : Lockset.t;
  m_ls_id : int; (* interned id of the stripped store-time lockset *)
  m_vec_id : int;
}

and open_entry = {
  oe_meta : meta;
  oe_word : int;
  oe_lo : int; (* byte subrange of the store within this word *)
  oe_hi : int; (* exclusive *)
  mutable oe_pending_mask : int; (* bit t set: tid t's flush covers this *)
  mutable oe_pending_ovf : int list; (* tids >= mask width (rare) *)
  mutable oe_closed : bool;
}

and pending_vec = open_entry Trace.Vec.t

let pending_mask_width = 62

let pending_mem e tid =
  if tid < pending_mask_width then e.oe_pending_mask land (1 lsl tid) <> 0
  else List.mem tid e.oe_pending_ovf

let pending_add e tid =
  if tid < pending_mask_width then
    e.oe_pending_mask <- e.oe_pending_mask lor (1 lsl tid)
  else e.oe_pending_ovf <- tid :: e.oe_pending_ovf

(* One cell per touched 8-byte word, found with a single int-keyed probe
   per (event, word): publication state, open windows, emitted records
   and both dedup tables live together, where the old representation paid
   one hashtable operation per concern. *)
type cell = {
  cl_word : int;
  mutable cl_pub : int; (* first-toucher tid, or [pub_published] *)
  mutable cl_open : open_entry list;
  cl_windows : Access.window Trace.Vec.t;
  cl_loads : Access.load Trace.Vec.t;
  (* Packed window- and load-dedup keys; [no_dedup] until the first
     insert, since most touched words never record one of each kind. *)
  mutable cl_wdedup : Trace.Int_tbl.Set.t;
  mutable cl_ldedup : Trace.Int_tbl.Set.t;
}

let pub_published = -2

(* Shared by every cell without dedup keys of one kind, and never
   inserted into: the first insert replaces it with a set of its own. *)
let no_dedup = Trace.Int_tbl.Set.create ()

type state = {
  irh : bool;
  timestamps : bool;
  eadr : bool;
  tables : Access.tables;
  trace : Trace.Tracebuf.t; (* its site ids are the records' site ids *)
  mutable threads : thread_state array;
  mutable nthreads : int;
  cell_idx : Trace.Int_tbl.Map.t; (* word -> index into cell_list *)
  cell_list : cell Trace.Vec.t;
  mutable scratch : cell array; (* per-event word cells, reused *)
  (* Keys that exceed a packed field width (tid >= 2^9, lockset id >=
     2^9, ...) fall back to tuple-keyed tables: never a silent
     collision. *)
  spill_w : (int * int * int * int * int * int * int, unit) Hashtbl.t;
  spill_l : (int * int * int * int * int, unit) Hashtbl.t;
  mutable n_windows : int;
  mutable n_opened : int;
  mutable n_closed : int;
  mutable n_load_records : int;
  mutable irh_stores : int;
  mutable irh_loads : int;
  mutable n_stores : int;
  mutable n_loads : int;
}

(* A fresh thread has a batched tick pending: its first PM access gives it
   a non-zero own component, so threads that never synchronized compare as
   concurrent rather than equal. *)
let fresh_thread () =
  {
    ls = Lockset.empty;
    ls_id = -1;
    acq_clock = 0;
    vec = Vclock.zero;
    vec_id = -1;
    vc_dirty = true;
    pending = Trace.Vec.create ();
  }

let thread st tid =
  let tid = Trace.Tid.to_int tid in
  while tid >= st.nthreads do
    if st.nthreads = Array.length st.threads then begin
      let bigger = Array.make (max 8 (2 * st.nthreads)) (fresh_thread ()) in
      Array.blit st.threads 0 bigger 0 st.nthreads;
      (* Each slot needs its own record. *)
      for i = st.nthreads to Array.length bigger - 1 do
        bigger.(i) <- fresh_thread ()
      done;
      st.threads <- bigger
    end;
    st.nthreads <- st.nthreads + 1
  done;
  st.threads.(tid)

(* Lazy vector-clock tick: the first PM access after a thread create/join
   increments the thread's own component (§4 batching). *)
let touch_vec st tid =
  let th = thread st tid in
  if th.vc_dirty then begin
    th.vec <- Vclock.tick th.vec (Trace.Tid.to_int tid);
    th.vec_id <- -1;
    th.vc_dirty <- false
  end;
  th

let th_vec_id st th =
  if th.vec_id >= 0 then th.vec_id
  else begin
    let id = Access.Vc_table.intern st.tables.Access.vc th.vec in
    th.vec_id <- id;
    id
  end

let th_ls_id st th =
  if th.ls_id >= 0 then th.ls_id
  else begin
    let id =
      Access.Ls_table.intern st.tables.Access.ls (Lockset.strip_ts th.ls)
    in
    th.ls_id <- id;
    id
  end

let make_cell ?(pub = pub_published) word =
  {
    cl_word = word;
    cl_pub = pub;
    cl_open = [];
    cl_windows = Trace.Vec.create ();
    cl_loads = Trace.Vec.create ();
    cl_wdedup = no_dedup;
    cl_ldedup = no_dedup;
  }

(* Find-or-create the cell for [word], folding the publication update
   (§3.1.3: a word becomes published at its first access by a second
   thread) into the same probe. *)
let get_cell st word ~tid =
  let idx = Trace.Int_tbl.Map.find st.cell_idx word in
  if idx >= 0 then begin
    let c = Trace.Vec.get st.cell_list idx in
    if c.cl_pub <> pub_published && c.cl_pub <> tid then
      c.cl_pub <- pub_published;
    c
  end
  else begin
    let pub = if Fault.on Fault.Publish_before_touch then pub_published else tid in
    let c = make_cell ~pub word in
    Trace.Int_tbl.Map.set st.cell_idx word (Trace.Vec.length st.cell_list);
    Trace.Vec.push st.cell_list c;
    c
  end

let is_published c = c.cl_pub = pub_published

let end_kind_tag = function
  | Access.Persisted_same_thread -> 0
  | Access.Persisted_other_thread -> 1
  | Access.Overwritten_same_thread -> 2
  | Access.Overwritten_other_thread -> 3
  | Access.Open_at_exit -> 4

let spill_window_fresh st cell m ~eff_id ~evec ~tag =
  let key =
    (cell.cl_word, m.m_tid, m.m_site_id, eff_id, m.m_vec_id, evec, tag)
  in
  if Hashtbl.mem st.spill_w key then false
  else begin
    Hashtbl.add st.spill_w key ();
    true
  end

let emit_window st cell entry ~eff ~end_vec ~kind =
  let m = entry.oe_meta in
  (* Timestamps have served their purpose (the same-thread intersection);
     strip them so windows from different atomic sections share ids. *)
  let eff_id = Access.Ls_table.intern st.tables.Access.ls (Lockset.strip_ts eff) in
  let evec = match end_vec with Some v -> v | None -> -1 in
  let tag = end_kind_tag kind in
  let key =
    Trace.Packed_key.window_key ~tid:m.m_tid ~site:m.m_site_id ~eff:eff_id
      ~vec:m.m_vec_id ~evec:(evec + 1) ~kind:tag
  in
  let fresh =
    if key >= 0 then begin
      if cell.cl_wdedup == no_dedup then
        cell.cl_wdedup <- Trace.Int_tbl.Set.create ();
      Trace.Int_tbl.Set.add cell.cl_wdedup key
    end
    else spill_window_fresh st cell m ~eff_id ~evec ~tag
  in
  if fresh then begin
    let w =
      {
        Access.w_tid = m.m_tid;
        w_addr = m.m_addr;
        w_size = m.m_size;
        w_site = Trace.Tracebuf.site st.trace m.m_site_id;
        w_store_ls = m.m_ls_id;
        w_eff = eff_id;
        w_store_vec = m.m_vec_id;
        w_end_vec = end_vec;
        w_end = kind;
      }
    in
    st.n_windows <- st.n_windows + 1;
    Trace.Vec.push cell.cl_windows w
  end

let effective_lockset st m ~closer_tid ~closer_ls =
  if m.m_tid = closer_tid then
    if st.timestamps then Lockset.inter_same_thread m.m_ls closer_ls
    else Lockset.inter_same_thread_no_ts m.m_ls closer_ls
  else
    (* A window closed by another thread cannot be spanned atomically by
       any lock the storing thread held. *)
    Lockset.empty

(* Close a window, closed by thread [closer_tid] holding [closer_ls].
   IRH: a store explicitly persisted while its word is still unpublished
   happened during initialization and is discarded — before its
   effective lockset is computed, since only an emitted window needs
   it. *)
let close_entry st cell entry ~closer_tid ~closer_ls ~end_vec ~kind =
  entry.oe_closed <- true;
  st.n_closed <- st.n_closed + 1;
  let persisted =
    match kind with
    | Access.Persisted_same_thread | Access.Persisted_other_thread -> true
    | Access.Overwritten_same_thread | Access.Overwritten_other_thread
    | Access.Open_at_exit ->
        false
  in
  if st.irh && persisted && not (is_published cell) then
    st.irh_stores <- st.irh_stores + 1
  else
    emit_window st cell entry
      ~eff:(effective_lockset st entry.oe_meta ~closer_tid ~closer_ls)
      ~end_vec ~kind

let on_store st ~tid ~addr ~size ~site_id =
  st.n_stores <- st.n_stores + 1;
  let th = touch_vec st tid in
  let itid = Trace.Tid.to_int tid in
  if st.eadr then
    (* eADR: the store is durable the moment it is visible — there is no
       window in which another thread could load unpersisted data. Only
       the publication state needs updating. *)
    Pmem.Layout.iter_words addr size (fun word ->
        ignore (get_cell st word ~tid:itid : cell))
  else begin
    let vec_id = th_vec_id st th in
    let ls_id = th_ls_id st th in
    let m =
      { m_tid = itid; m_addr = addr; m_size = size; m_site_id = site_id;
        m_ls = th.ls; m_ls_id = ls_id; m_vec_id = vec_id }
    in
    (* One pass per word: publish, close overlapping open windows
       (overwrite), open the new one. All three queries are word-local,
       so fusing the old three passes is invisible in the result. *)
    Pmem.Layout.iter_words addr size (fun word ->
        let c = get_cell st word ~tid:itid in
        let closed_any = ref false in
        List.iter
          (fun e ->
            if
              (not e.oe_closed)
              && Pmem.Layout.ranges_overlap e.oe_lo (e.oe_hi - e.oe_lo) addr size
            then begin
              let kind =
                if e.oe_meta.m_tid = itid then Access.Overwritten_same_thread
                else Access.Overwritten_other_thread
              in
              close_entry st c e ~closer_tid:itid ~closer_ls:th.ls
                ~end_vec:(Some vec_id) ~kind;
              closed_any := true
            end)
          c.cl_open;
        if !closed_any then
          c.cl_open <- List.filter (fun e -> not e.oe_closed) c.cl_open;
        let wlo = word * Pmem.Layout.word_size in
        let whi = wlo + Pmem.Layout.word_size in
        let e =
          {
            oe_meta = m;
            oe_word = word;
            oe_lo = max addr wlo;
            oe_hi = min (addr + size) whi;
            oe_pending_mask = 0;
            oe_pending_ovf = [];
            oe_closed = false;
          }
        in
        c.cl_open <- e :: c.cl_open;
        st.n_opened <- st.n_opened + 1)
  end

let spill_load_fresh st cell ~tid ~site_id ~ls_id ~vec_id =
  let key = (cell.cl_word, tid, site_id, ls_id, vec_id) in
  if Hashtbl.mem st.spill_l key then false
  else begin
    Hashtbl.add st.spill_l key ();
    true
  end

let on_load st ~tid ~addr ~size ~site_id =
  st.n_loads <- st.n_loads + 1;
  let th = touch_vec st tid in
  let itid = Trace.Tid.to_int tid in
  (* Gather the word cells once (publication folds into the same probe);
     they are reused below without a second lookup. *)
  let nw = ref 0 in
  let any_pub = ref false in
  Pmem.Layout.iter_words addr size (fun word ->
      let c = get_cell st word ~tid:itid in
      if is_published c then any_pub := true;
      if !nw >= Array.length st.scratch then begin
        let bigger = Array.make (2 * Array.length st.scratch) c in
        Array.blit st.scratch 0 bigger 0 !nw;
        st.scratch <- bigger
      end;
      st.scratch.(!nw) <- c;
      incr nw);
  let keep = (not st.irh) || !any_pub in
  if not keep then st.irh_loads <- st.irh_loads + 1
  else begin
    let ls_id = th_ls_id st th in
    let vec_id = th_vec_id st th in
    (* The record is built at most once, shared by every word that keeps
       it; fully-deduplicated loads never allocate it. *)
    let record = ref None in
    let get_record () =
      match !record with
      | Some l -> l
      | None ->
          let l =
            {
              Access.l_tid = itid;
              l_addr = addr;
              l_size = size;
              l_site = Trace.Tracebuf.site st.trace site_id;
              l_ls = ls_id;
              l_vec = vec_id;
            }
          in
          st.n_load_records <- st.n_load_records + 1;
          record := Some l;
          l
    in
    for i = 0 to !nw - 1 do
      let c = st.scratch.(i) in
      let key =
        Trace.Packed_key.load_key ~tid:itid ~site:site_id ~ls:ls_id ~vec:vec_id
      in
      let fresh =
        if key >= 0 then begin
          if c.cl_ldedup == no_dedup then
            c.cl_ldedup <- Trace.Int_tbl.Set.create ();
          Trace.Int_tbl.Set.add c.cl_ldedup key
        end
        else spill_load_fresh st c ~tid:itid ~site_id ~ls_id ~vec_id
      in
      if fresh then Trace.Vec.push c.cl_loads (get_record ())
    done
  end

let on_flush st ~tid ~line =
  let th = touch_vec st tid in
  let itid = Trace.Tid.to_int tid in
  let first_word = line / Pmem.Layout.word_size in
  for w = first_word to first_word + (Pmem.Layout.line_size / Pmem.Layout.word_size) - 1 do
    let idx = Trace.Int_tbl.Map.find st.cell_idx w in
    if idx >= 0 then
      List.iter
        (fun e ->
          if (not e.oe_closed) && not (pending_mem e itid) then begin
            pending_add e itid;
            Trace.Vec.push th.pending e
          end)
        (Trace.Vec.get st.cell_list idx).cl_open
  done

let on_fence st ~tid =
  let th = touch_vec st tid in
  let itid = Trace.Tid.to_int tid in
  if Trace.Vec.length th.pending > 0 then begin
    let vec_id = th_vec_id st th in
    (* Newest-first: the order of the cons list this vector replaces —
       close order decides window ids and per-word emission order. *)
    for i = Trace.Vec.length th.pending - 1 downto 0 do
      let e = Trace.Vec.get th.pending i in
      if (not e.oe_closed) && pending_mem e itid then begin
        let kind =
          if e.oe_meta.m_tid = itid then Access.Persisted_same_thread
          else Access.Persisted_other_thread
        in
        let idx = Trace.Int_tbl.Map.find st.cell_idx e.oe_word in
        close_entry st
          (Trace.Vec.get st.cell_list idx)
          e ~closer_tid:itid ~closer_ls:th.ls ~end_vec:(Some vec_id) ~kind
      end
    done;
    Trace.Vec.clear th.pending
  end

let on_acquire st ~tid ~lock =
  let th = thread st tid in
  th.acq_clock <- th.acq_clock + 1;
  th.ls <- Lockset.acquire th.ls lock ~ts:th.acq_clock;
  th.ls_id <- -1

let on_release st ~tid ~lock =
  let th = thread st tid in
  th.ls <- Lockset.release th.ls lock;
  th.ls_id <- -1

(* Thread creation: the parent's counter ticks, the child adopts the
   parent's clock and ticks its own counter (§3.1.2). Both threads also
   get a pending batched tick for their next PM access. *)
let on_create st ~parent ~child =
  let p = thread st parent in
  p.vec <- Vclock.tick p.vec (Trace.Tid.to_int parent);
  p.vec_id <- -1;
  p.vc_dirty <- true;
  let c = thread st child in
  c.vec <- Vclock.tick p.vec (Trace.Tid.to_int child);
  c.vec_id <- -1;
  c.vc_dirty <- true

let on_join st ~waiter ~joined =
  let j = thread st joined in
  let w = thread st waiter in
  w.vec <- Vclock.merge w.vec j.vec;
  w.vec_id <- -1;
  w.vc_dirty <- true

let finalize st =
  (* Windows still open at the end of the trace never persisted: their
     effective lockset is empty and their happens-before window never
     closes. The IRH keeps them (they are exactly the unpersisted
     initialization stores that can race after publication). *)
  Trace.Vec.iter
    (fun c ->
      List.iter
        (fun e ->
          if not e.oe_closed then
            (* No thread closes it: tid -1 matches no storing thread,
               so the effective lockset is empty. *)
            close_entry st c e ~closer_tid:(-1) ~closer_ls:Lockset.empty
              ~end_vec:None ~kind:Access.Open_at_exit)
        c.cl_open)
    st.cell_list

(* Freeze the cells into the sorted, immutable arrays stage 3 consumes:
   [words] ascending, per-word records newest-first (the iteration order
   of the cons lists this replaces, so reports are unchanged), [slots]
   the indices of words carrying at least one load record — the
   deterministic iteration domain. *)
let freeze st stats =
  let keep = ref [] in
  Trace.Vec.iter
    (fun c ->
      if Trace.Vec.length c.cl_windows > 0 || Trace.Vec.length c.cl_loads > 0
      then keep := c :: !keep)
    st.cell_list;
  let cells = Array.of_list !keep in
  Array.sort (fun a b -> Int.compare a.cl_word b.cl_word) cells;
  let words = Array.map (fun c -> c.cl_word) cells in
  let windows_of =
    Array.map (fun c -> Trace.Vec.to_reversed_array c.cl_windows) cells
  in
  let loads_of =
    Array.map (fun c -> Trace.Vec.to_reversed_array c.cl_loads) cells
  in
  let nslots = ref 0 in
  Array.iter
    (fun ls -> if Array.length ls > 0 then incr nslots)
    loads_of;
  let slots = Array.make !nslots 0 in
  let j = ref 0 in
  Array.iteri
    (fun i ls ->
      if Array.length ls > 0 then begin
        slots.(!j) <- i;
        incr j
      end)
    loads_of;
  { tables = st.tables; words; windows_of; loads_of; slots; stats }

let pp_stats ppf s =
  Format.fprintf ppf
    "events=%d stores=%d loads=%d windows=%d (opened=%d closed=%d) \
     load_records=%d irh(st=%d ld=%d) locksets=%d vclocks=%d words=%d"
    s.c_events s.c_stores s.c_loads s.c_windows s.c_windows_opened
    s.c_windows_closed s.c_load_records s.c_irh_discarded_stores
    s.c_irh_discarded_loads s.c_locksets s.c_vclocks s.c_words

let collect ?(irh = true) ?(timestamps = true) ?(eadr = false) ?stop trace =
  let st =
    {
      irh;
      timestamps;
      eadr;
      tables = Access.create_tables ();
      trace;
      threads = Array.init 8 (fun _ -> fresh_thread ());
      nthreads = 0;
      cell_idx = Trace.Int_tbl.Map.create ~size:4096 ();
      cell_list = Trace.Vec.create ();
      scratch = Array.make 16 (make_cell (-1));
      spill_w = Hashtbl.create 16;
      spill_l = Hashtbl.create 16;
      n_windows = 0;
      n_opened = 0;
      n_closed = 0;
      n_load_records = 0;
      irh_stores = 0;
      irh_loads = 0;
      n_stores = 0;
      n_loads = 0;
    }
  in
  Obs.Logger.debug ~section:"collector" (fun () ->
      Printf.sprintf "collect: %d events (irh=%b ts=%b eadr=%b)"
        (Trace.Tracebuf.length trace) irh timestamps eadr);
  let consumed = ref 0 in
  (* [stop] is polled every 512 events: a tripped deadline abandons the
     rest of the trace and finalizes what was tracked so far — the result
     is exactly the collection of the consumed prefix. *)
  (try
     Trace.Tracebuf.iteri
       (fun i ev ->
         (match stop with
         | Some f when !consumed land 511 = 0 && f () -> raise Exit
         | Some _ | None -> ());
         incr consumed;
         match ev with
         | Trace.Event.Store { tid; addr; size; site = _; non_temporal = _ } ->
             on_store st ~tid ~addr ~size
               ~site_id:(Trace.Tracebuf.site_id trace i)
         | Trace.Event.Load { tid; addr; size; site = _ } ->
             on_load st ~tid ~addr ~size
               ~site_id:(Trace.Tracebuf.site_id trace i)
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
       trace
   with Exit -> ());
  finalize st;
  let stats =
    {
      c_events = !consumed;
      c_stores = st.n_stores;
      c_loads = st.n_loads;
      c_windows = st.n_windows;
      c_windows_opened = st.n_opened;
      c_windows_closed = st.n_closed;
      c_load_records = st.n_load_records;
      c_irh_discarded_stores = st.irh_stores;
      c_irh_discarded_loads = st.irh_loads;
      c_locksets = Access.Ls_table.count st.tables.Access.ls;
      c_vclocks = Access.Vc_table.count st.tables.Access.vc;
      c_words = Trace.Vec.length st.cell_list;
    }
  in
  Obs.Registry.publish
    [ ("collector.events", stats.c_events);
      ("collector.stores", stats.c_stores); ("collector.loads", stats.c_loads);
      ("collector.windows_emitted", stats.c_windows);
      ("collector.windows_opened", stats.c_windows_opened);
      ("collector.windows_closed", stats.c_windows_closed);
      ("collector.load_records", stats.c_load_records);
      ("collector.irh_discarded_stores", stats.c_irh_discarded_stores);
      ("collector.irh_discarded_loads", stats.c_irh_discarded_loads);
      ("collector.locksets_interned", stats.c_locksets);
      ("collector.vclocks_interned", stats.c_vclocks);
      ("collector.words_touched", stats.c_words) ];
  Obs.Logger.debug ~section:"collector" (fun () ->
      Format.asprintf "%a" pp_stats stats);
  freeze st stats


let all_windows (t : result) =
  Array.fold_right
    (fun ws acc -> Array.fold_right (fun w acc -> w :: acc) ws acc)
    t.windows_of []

let all_loads (t : result) =
  Array.fold_right
    (fun ls acc -> Array.fold_right (fun l acc -> l :: acc) ls acc)
    t.loads_of []
