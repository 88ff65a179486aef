type policy =
  | Random_interleave
  | Round_robin
  | Delay_injection of { probability : float; duration : int }
  | Targeted_delay of { store_loc : string; duration : int }
  | Scripted of int array
  | Pct of { depth : int }

type outcome = Completed | Crashed

type observation = {
  obs_store_site : Trace.Site.t;
  obs_load_site : Trace.Site.t;
  obs_addr : int;
  obs_racy : bool;
      (* no instrumented lock was held by both the storing thread (at
         store time) and the loading thread (at load time) — i.e. the
         pair is concurrent under Definition 1 and in scope for the
         lockset analysis, not just for observation-based detection *)
}

(* A run's counts, published once when it ends; each is an exact function
   of (program, seed, policy), so Table 3's cost asymmetry is countable. *)
type stats = {
  mutable points : int;
  mutable context_switches : int;
  mutable delays_injected : int;
  mutable pct_priority_changes : int;
  runnable : Obs.Metric.histogram;
  mutable pmem : Pmem.Heap.stats;
}

type report = {
  outcome : outcome;
  trace : Trace.Tracebuf.t;
  event_count : int;
  observations : observation list;
  thread_count : int;
  stats : stats;
}

exception Deadlock of string

(* What a thread that is not running resumes with; [Idle] while it runs
   and once it has finished. *)
type resume =
  | Idle
  | Start of (unit -> unit)
  | Resume of (unit, unit) Effect.Deep.continuation

(* An interned call stack: one node per distinct path of [with_frame]
   names, so equal stacks share one list and one id. *)
type frame = {
  f_id : int;
  f_name : string;
  f_frames : string list; (* innermost first, [f_name] at the head *)
  mutable f_children : frame list;
}

type thread = {
  t_tid : int;
  mutable cont : resume;
  mutable runnable : bool;
  mutable finished : bool;
  mutable delay : int;
  mutable joiners : int list;
  mutable frame : frame;
  mutable priority : int; (* PCT priority; drawn at spawn under [Pct] *)
  mutable held_locks : Trace.Lock_id.t list;
      (* instrumented locks currently held; mirrors what the lockset
         analysis will compute for this thread at the same point *)
}

type t = {
  heap : Pmem.Heap.t;
  pm : Pmem.Region.t; (* which addresses are PM (mmap'ed PM files, §4) *)
  mutable decisions : int; (* scheduling decisions taken (Scripted) *)
  trace : Trace.Tracebuf.t;
  policy : policy;
  sync_config : Sync_config.t;
  prng : Prng.t;
  mutable threads : thread array;
  mutable nthreads : int;
  (* The unfinished threads, in tid order: [live.(0 .. nlive - 1)]. *)
  mutable live : thread array;
  mutable nlive : int;
  (* Scratch for one decision, as long as [threads]: the tids of the
     eligible threads in order, and of those of them not delayed. Ints,
     so filling them needs no write barrier. *)
  mutable cands : int array;
  mutable ready : int array;
  delays : bool; (* the policy delays threads *)
  mutable last_scheduled : int;
  mutable events : int;
  mutable fences : int; (* fences retired, for crash_after_fences *)
  crash_after : int option;
  crash_after_fences : int option;
  mutable crashed : bool;
  mutable failure : exn option;
  mutable next_lock_id : int;
  (* PCT state: change points remaining, and the next (decreasing)
     priority a demoted thread receives — always below every initial
     priority, so a demotion is permanent until the run ends. *)
  mutable pct_changes_left : int;
  mutable pct_low : int;
  target : (string * int) option;
      (* [Targeted_delay]'s store_loc as (file, line); [None] when no
         site prints as it *)
  root_frame : frame;
  mutable next_frame_id : int;
  (* The trace's site id of each distinct (file, line, frames): [site_idx]
     maps a packed (frame id, line) to it; another file at the same key,
     or a line that does not pack, goes to [site_spill]. *)
  site_idx : Trace.Int_tbl.Map.t;
  site_spill : (string * int * int, int) Hashtbl.t;
  observe : bool;
  last_store : (int, Trace.Tid.t * Trace.Site.t * Trace.Lock_id.t list) Hashtbl.t;
  (* word index -> last writer, its site, and its lockset at store time *)
  obs_seen : (string * string * bool, unit) Hashtbl.t;
  mutable observations : observation list;
  stats : stats;
}

type ctx = { m : t; self : thread }
type pos = string * int * int * int

type _ Effect.t +=
  | Switch_to : thread -> unit Effect.t
  | Park_self : unit Effect.t
  | Crash_stop : unit Effect.t

(* --- scheduler core ------------------------------------------------- *)

let add_thread m thunk =
  let th =
    {
      t_tid = m.nthreads;
      cont = Start thunk;
      runnable = true;
      finished = false;
      delay = 0;
      joiners = [];
      frame = m.root_frame;
      (* Under PCT every thread draws a random (high, positive) initial
         priority at spawn; other policies never read the field. *)
      priority =
        (match m.policy with
        | Pct _ -> 1 + Prng.int m.prng 0x3FFFFFFF
        | _ -> 0);
      held_locks = [];
    }
  in
  if m.nthreads = Array.length m.threads then begin
    let cap = 2 * max 1 m.nthreads in
    let bigger = Array.make cap th in
    Array.blit m.threads 0 bigger 0 m.nthreads;
    m.threads <- bigger;
    let live = Array.make cap th in
    Array.blit m.live 0 live 0 m.nlive;
    m.live <- live;
    m.cands <- Array.make cap 0;
    m.ready <- Array.make cap 0
  end;
  m.threads.(m.nthreads) <- th;
  m.nthreads <- m.nthreads + 1;
  (* Tids grow, so appending keeps [live] in tid order. *)
  m.live.(m.nlive) <- th;
  m.nlive <- m.nlive + 1;
  th

(* [th] has finished: mark it and drop it from [live]. *)
let retire m th =
  th.finished <- true;
  th.cont <- Idle;
  let rec find i = if m.live.(i) == th then i else find (i + 1) in
  let i = find 0 in
  Array.blit m.live (i + 1) m.live i (m.nlive - i - 1);
  m.nlive <- m.nlive - 1

(* Fill [m.cands] with the threads a decision chooses among, in tid
   order: the runnable, unfinished ones that hold a continuation, and
   [self], the running thread, whose continuation is not captured yet
   ([-1] when no thread is running). *)
let candidates m ~self =
  let n = ref 0 in
  for i = 0 to m.nlive - 1 do
    let th = m.live.(i) in
    if
      th.t_tid = self
      || th.runnable
         && match th.cont with Idle -> false | Start _ | Resume _ -> true
    then begin
      m.cands.(!n) <- th.t_tid;
      incr n
    end
  done;
  !n

(* Highest PCT priority wins; ties (only possible after an improbable
   equal draw) go to the lowest tid, keeping the pick deterministic. *)
let pct_top m pool n =
  let best = ref m.threads.(pool.(0)) in
  for i = 1 to n - 1 do
    let th = m.threads.(pool.(i)) in
    if
      th.priority > !best.priority
      || (th.priority = !best.priority && th.t_tid < !best.t_tid)
    then best := th
  done;
  !best

(* Next runnable thread after the last scheduled, wrapping. *)
let rec round_robin pool n last i =
  if i = n then pool.(0)
  else if pool.(i) > last then pool.(i)
  else round_robin pool n last (i + 1)

(* One scheduling decision: the tid of the thread to run next, or -1
   when no thread can run. *)
let pick m ~self =
  let nc = candidates m ~self in
  if nc = 0 then -1
  else begin
    (* Delay injection: delayed threads step their counter each round and
       are skipped while other work exists. Under the other policies no
       thread is ever delayed, so every candidate is ready. *)
    let cands = m.cands and ready = m.ready in
    let nr = ref 0 in
    if m.delays then
      for i = 0 to nc - 1 do
        let th = m.threads.(cands.(i)) in
        if th.delay = 0 then begin
          ready.(!nr) <- th.t_tid;
          incr nr
        end
        else th.delay <- th.delay - 1
      done;
    let pool = if !nr = 0 then cands else ready in
    let n = if !nr = 0 then nc else !nr in
    Obs.Metric.observe m.stats.runnable n;
    match m.policy with
    | Round_robin -> round_robin pool n m.last_scheduled 0
    | Scripted choices ->
        let i = m.decisions in
        m.decisions <- i + 1;
        if i < Array.length choices then pool.(abs (choices.(i) mod n))
        else round_robin pool n m.last_scheduled 0
    | Pct _ ->
        (* PCT (Burckhardt et al.): run the highest-priority runnable
           thread; at up to [depth - 1] randomly placed change points,
           permanently demote the current top below everyone else. Two
           deviations from strict PCT keep the cooperative machine
           live: the change points are geometric (one chance in 64 per
           decision while budget remains) rather than pre-drawn event
           indices, and one decision in 16 picks uniformly instead of
           by priority — without that escape hatch a top-priority
           thread spinning on a yield-loop lock held by a demoted
           thread would spin forever. *)
        if m.pct_changes_left > 0 && Prng.int m.prng 64 = 0 then begin
          m.pct_changes_left <- m.pct_changes_left - 1;
          let top = pct_top m pool n in
          top.priority <- m.pct_low;
          m.pct_low <- m.pct_low - 1;
          m.stats.pct_priority_changes <- m.stats.pct_priority_changes + 1
        end;
        if Prng.int m.prng 16 = 0 then pool.(Prng.int m.prng n)
        else (pct_top m pool n).t_tid
    | Random_interleave | Delay_injection _ | Targeted_delay _ ->
        pool.(Prng.int m.prng n)
  end

let rec schedule m =
  if m.crashed || m.failure <> None then begin
    (* Drop every remaining fiber: a crash (or an application exception)
       stops the machine; unresumed continuations are simply abandoned. *)
    for i = 0 to m.nthreads - 1 do
      let th = m.threads.(i) in
      th.cont <- Idle;
      th.finished <- true
    done;
    m.nlive <- 0
  end
  else
    let next = pick m ~self:(-1) in
    if next >= 0 then dispatch m m.threads.(next)

(* Run [th], the winner of a decision. *)
and dispatch m th =
  if th.t_tid <> m.last_scheduled then
    m.stats.context_switches <- m.stats.context_switches + 1;
  m.last_scheduled <- th.t_tid;
  match th.cont with
  | Idle -> assert false
  | Start thunk ->
      th.cont <- Idle;
      exec_fiber m th thunk
  | Resume k ->
      th.cont <- Idle;
      Effect.Deep.continue k ()

and exec_fiber m th thunk =
  let open Effect.Deep in
  match_with thunk ()
    {
      retc =
        (fun () ->
          retire m th;
          List.iter
            (fun j ->
              let waiter = m.threads.(j) in
              waiter.runnable <- true)
            th.joiners;
          th.joiners <- [];
          schedule m);
      exnc =
        (fun e ->
          if m.failure = None then m.failure <- Some e;
          retire m th;
          schedule m);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Switch_to next ->
              Some
                (fun (k : (a, unit) continuation) ->
                  th.cont <- Resume k;
                  dispatch m next)
          | Park_self ->
              Some
                (fun (k : (a, unit) continuation) ->
                  th.cont <- Resume k;
                  th.runnable <- false;
                  schedule m)
          | Crash_stop ->
              Some
                (fun (_k : (a, unit) continuation) ->
                  m.crashed <- true;
                  retire m th;
                  schedule m)
          | _ -> None);
    }

(* --- instrumentation ------------------------------------------------ *)

(* The decision runs inline, the running thread counted as eligible, so
   a point that keeps the same thread running costs no effect. The
   running thread is never crashed, failed, parked or finished here, and
   the last scheduled, so the pick, the PRNG draws and the counters are
   exactly those of a decision taken after suspending it. *)
let sched_point ctx =
  ctx.m.stats.points <- ctx.m.stats.points + 1;
  let me = ctx.self.t_tid in
  let next = pick ctx.m ~self:me in
  if next <> me then Effect.perform (Switch_to ctx.m.threads.(next))

let check_crash m =
  (match m.crash_after with
  | Some budget when m.events >= budget -> Effect.perform Crash_stop
  | Some _ | None -> ());
  match m.crash_after_fences with
  | Some n when m.fences >= n -> Effect.perform Crash_stop
  | Some _ | None -> ()

(* [id] is the event's site id in the trace, -1 for a thread event. *)
let emit ctx id ev =
  Trace.Tracebuf.push_with_site ctx.m.trace ev id;
  ctx.m.events <- ctx.m.events + 1

let site_line_bits = 24

let new_site m file line fr =
  Trace.Tracebuf.add_site m.trace { Trace.Site.file; line; frames = fr.f_frames }

let spill_site m file line fr =
  let key = (file, line, fr.f_id) in
  match Hashtbl.find m.site_spill key with
  | id -> id
  | exception Not_found ->
      let id = new_site m file line fr in
      Hashtbl.add m.site_spill key id;
      id

(* The trace's id of this position's site under the thread's call stack:
   a site is built and hashed once per distinct site, not per event, and
   every event that carries it shares the trace's one [Site.t]. *)
let site_id ctx ((file, line, _, _) : pos) =
  let m = ctx.m and fr = ctx.self.frame in
  if line < 0 || line lsr site_line_bits <> 0 then spill_site m file line fr
  else
    let key = (fr.f_id lsl site_line_bits) lor line in
    let id = Trace.Int_tbl.Map.find m.site_idx key in
    if id < 0 then begin
      let id = new_site m file line fr in
      Trace.Int_tbl.Map.set m.site_idx key id;
      id
    end
    else
      let f = (Trace.Tracebuf.site m.trace id).Trace.Site.file in
      if f == file || String.equal f file then id
      else spill_site m file line fr

let site ctx id = Trace.Tracebuf.site ctx.m.trace id

let tid ctx = Trace.Tid.of_int ctx.self.t_tid
let heap ctx = ctx.m.heap
let random ctx = ctx.m.prng
let yield ctx = sched_point ctx

let spawn ctx body =
  check_crash ctx.m;
  let m = ctx.m in
  let child_slot = m.nthreads in
  let rec th_ref = ref None
  and thunk () =
    match !th_ref with
    | None -> assert false
    | Some th -> body { m; self = th }
  in
  let th = add_thread m thunk in
  th_ref := Some th;
  assert (th.t_tid = child_slot);
  emit ctx (-1)
    (Trace.Event.Thread_create
       { parent = tid ctx; child = Trace.Tid.of_int child_slot });
  sched_point ctx;
  Trace.Tid.of_int child_slot

let join ctx target =
  check_crash ctx.m;
  let m = ctx.m in
  let target_i = Trace.Tid.to_int target in
  if target_i < 0 || target_i >= m.nthreads then
    invalid_arg "Sched.join: unknown thread";
  let target_th = m.threads.(target_i) in
  while not target_th.finished do
    target_th.joiners <- ctx.self.t_tid :: target_th.joiners;
    Effect.perform Park_self
  done;
  emit ctx (-1) (Trace.Event.Thread_join { waiter = tid ctx; joined = target });
  sched_point ctx

let delay ctx duration =
  ctx.m.stats.delays_injected <- ctx.m.stats.delays_injected + 1;
  ctx.self.delay <- duration

let maybe_delay ctx st =
  match ctx.m.policy with
  | Delay_injection { probability; duration } ->
      if Prng.float ctx.m.prng 1.0 < probability then delay ctx duration
  | Targeted_delay { duration; _ } -> (
      match ctx.m.target with
      | Some (file, line)
        when st.Trace.Site.line = line && String.equal st.Trace.Site.file file
        ->
          delay ctx duration
      | Some _ | None -> ())
  | Random_interleave | Round_robin | Scripted _ | Pct _ -> ()

let record_store_words ctx ~addr ~size ~site:st =
  if ctx.m.observe then
    let held = ctx.self.held_locks in
    Pmem.Layout.iter_words addr size (fun w ->
        Hashtbl.replace ctx.m.last_store w (tid ctx, st, held))

let check_observation ?(rmw = false) ctx ~addr ~size ~site:load_site =
  if ctx.m.observe then
    let me = tid ctx in
    Pmem.Layout.iter_words addr size (fun w ->
        match Hashtbl.find_opt ctx.m.last_store w with
        | Some (writer, store_site, store_locks)
          when not (Trace.Tid.equal writer me) ->
            if
              not
                (Pmem.Heap.persisted_range ctx.m.heap
                   ~addr:(w * Pmem.Layout.word_size)
                   ~size:Pmem.Layout.word_size)
            then begin
              (* A common instrumented lock means the pair is ordered
                 under Definition 1: still an inter-thread unpersisted
                 read (observation-based detectors flag it), but out of
                 scope for the lockset analysis. A successful CAS
                 ([rmw]) is likewise out of scope: its read closes the
                 store's window itself, with a vector clock equal to
                 the load's, so Algorithm 1's clock comparison cannot
                 place the read inside the window. *)
              let racy =
                (not rmw)
                && not
                     (List.exists
                        (fun l -> List.mem l ctx.self.held_locks)
                        store_locks)
              in
              let key =
                ( Trace.Site.location store_site,
                  Trace.Site.location load_site,
                  racy )
              in
              if not (Hashtbl.mem ctx.m.obs_seen key) then begin
                Hashtbl.add ctx.m.obs_seen key ();
                ctx.m.observations <-
                  {
                    obs_store_site = store_site;
                    obs_load_site = load_site;
                    obs_addr = w * Pmem.Layout.word_size;
                    obs_racy = racy;
                  }
                  :: ctx.m.observations
              end
            end
        | Some _ | None -> ())

(* The instrumentation after an access to the heap: accesses outside
   the registered PM regions are ordinary volatile memory the analysis
   never sees (§4). Each accessor writes or reads the heap itself, so no
   closure is built per access. *)
let after_store ctx p addr size ~non_temporal =
  if Pmem.Region.is_pm ctx.m.pm addr then begin
    let id = site_id ctx p in
    let st = site ctx id in
    Pmem.Heap.note_store ctx.m.heap ~tid:(tid ctx) ~addr ~size ~non_temporal;
    record_store_words ctx ~addr ~size ~site:st;
    emit ctx id
      (Trace.Event.Store { tid = tid ctx; addr; size; site = st; non_temporal });
    maybe_delay ctx st
  end;
  sched_point ctx

let after_load ctx p addr size =
  if Pmem.Region.is_pm ctx.m.pm addr then begin
    let id = site_id ctx p in
    let st = site ctx id in
    check_observation ctx ~addr ~size ~site:st;
    emit ctx id (Trace.Event.Load { tid = tid ctx; addr; size; site = st })
  end;
  sched_point ctx

let store_i64 ctx p addr v =
  check_crash ctx.m;
  Pmem.Heap.write_i64 ctx.m.heap addr v;
  after_store ctx p addr 8 ~non_temporal:false

let store_i64_nt ctx p addr v =
  check_crash ctx.m;
  Pmem.Heap.write_i64 ctx.m.heap addr v;
  after_store ctx p addr 8 ~non_temporal:true

let load_i64 ctx p addr =
  check_crash ctx.m;
  let v = Pmem.Heap.read_i64 ctx.m.heap addr in
  after_load ctx p addr 8;
  v

let store_u8 ctx p addr v =
  check_crash ctx.m;
  Pmem.Heap.write_u8 ctx.m.heap addr v;
  after_store ctx p addr 1 ~non_temporal:false

let load_u8 ctx p addr =
  check_crash ctx.m;
  let v = Pmem.Heap.read_u8 ctx.m.heap addr in
  after_load ctx p addr 1;
  v

let store_bytes ctx p addr b =
  check_crash ctx.m;
  Pmem.Heap.write_bytes ctx.m.heap addr b;
  after_store ctx p addr (Bytes.length b) ~non_temporal:false

let load_bytes ctx p addr len =
  check_crash ctx.m;
  let v = Pmem.Heap.read_bytes ctx.m.heap addr len in
  after_load ctx p addr len;
  v

let cas_i64 ctx p addr ~expected ~desired =
  check_crash ctx.m;
  let id = site_id ctx p in
  let st = site ctx id in
  let current = Pmem.Heap.read_i64 ctx.m.heap addr in
  let success = Int64.equal current expected in
  check_observation ctx ~rmw:success ~addr ~size:8 ~site:st;
  emit ctx id (Trace.Event.Load { tid = tid ctx; addr; size = 8; site = st });
  if success then begin
    Pmem.Heap.write_i64 ctx.m.heap addr desired;
    Pmem.Heap.note_store ctx.m.heap ~tid:(tid ctx) ~addr ~size:8
      ~non_temporal:false;
    record_store_words ctx ~addr ~size:8 ~site:st;
    emit ctx id
      (Trace.Event.Store
         { tid = tid ctx; addr; size = 8; site = st; non_temporal = false });
    maybe_delay ctx st
  end;
  sched_point ctx;
  success

let flush_line ctx p addr =
  check_crash ctx.m;
  if Pmem.Region.is_pm ctx.m.pm addr then begin
    let line = Pmem.Layout.line_of addr in
    Pmem.Heap.flush ctx.m.heap ~tid:(tid ctx) ~line;
    let id = site_id ctx p in
    emit ctx id
      (Trace.Event.Flush
         { tid = tid ctx; line; kind = Trace.Event.Clwb; site = site ctx id })
  end;
  sched_point ctx

let flush_range ctx p addr size =
  if size > 0 then
    for i = addr / Pmem.Layout.line_size
        to (addr + size - 1) / Pmem.Layout.line_size do
      flush_line ctx p (i * Pmem.Layout.line_size)
    done

let fence ctx p =
  check_crash ctx.m;
  Pmem.Heap.fence ctx.m.heap ~tid:(tid ctx);
  let id = site_id ctx p in
  emit ctx id (Trace.Event.Fence { tid = tid ctx; site = site ctx id });
  ctx.m.fences <- ctx.m.fences + 1;
  sched_point ctx

let persist ctx p addr size =
  flush_range ctx p addr size;
  fence ctx p

let alloc ctx ?align n = Pmem.Heap.alloc ?align ctx.m.heap n
let free ctx ~addr ~size = Pmem.Heap.free ctx.m.heap ~addr ~size

(* The child of [parent] named [name], created on first use. *)
let child_frame m parent name =
  let rec find = function
    | c :: rest ->
        if c.f_name == name || String.equal c.f_name name then c
        else find rest
    | [] ->
        let c =
          {
            f_id = m.next_frame_id;
            f_name = name;
            f_frames = name :: parent.f_frames;
            f_children = [];
          }
        in
        m.next_frame_id <- m.next_frame_id + 1;
        parent.f_children <- c :: parent.f_children;
        c
  in
  find parent.f_children

let with_frame ctx name f =
  let th = ctx.self in
  let parent = th.frame in
  th.frame <- child_frame ctx.m parent name;
  match f () with
  | v ->
      th.frame <- parent;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      th.frame <- parent;
      Printexc.raise_with_backtrace e bt

let fresh_lock_id ctx =
  let id = ctx.m.next_lock_id in
  ctx.m.next_lock_id <- id + 1;
  Trace.Lock_id.of_int id

(* Acquire/release are scheduling points even for primitives the
   configuration does not instrument: a real lock is a compiled function
   whose execution the OS can preempt — without the yield, a releasing
   thread could atomically re-acquire and starve everyone else. *)
let emit_acquire ctx p ~primitive lock =
  check_crash ctx.m;
  if Sync_config.is_instrumented ctx.m.sync_config primitive then begin
    ctx.self.held_locks <- lock :: ctx.self.held_locks;
    let id = site_id ctx p in
    emit ctx id
      (Trace.Event.Lock_acquire { tid = tid ctx; lock; site = site ctx id })
  end;
  sched_point ctx

(* Unlike acquisition, releasing must NOT yield between the event and the
   state change: callers free the lock first and then call {!yield}
   themselves, so the scheduler always sees a window in which the lock is
   available — otherwise a tight lock/unlock loop starves every other
   thread deterministically. *)
let emit_release ctx p ~primitive lock =
  check_crash ctx.m;
  if Sync_config.is_instrumented ctx.m.sync_config primitive then begin
    (* drop one occurrence — reentrant acquires stack *)
    let rec drop = function
      | [] -> []
      | l :: rest ->
          if Trace.Lock_id.equal l lock then rest else l :: drop rest
    in
    ctx.self.held_locks <- drop ctx.self.held_locks;
    let id = site_id ctx p in
    emit ctx id
      (Trace.Event.Lock_release { tid = tid ctx; lock; site = site ctx id })
  end

let park _ctx = Effect.perform Park_self

let unpark ctx target =
  let i = Trace.Tid.to_int target in
  if i < 0 || i >= ctx.m.nthreads then invalid_arg "Sched.unpark";
  ctx.m.threads.(i).runnable <- true

(* --- entry point ----------------------------------------------------- *)

(* A site's location is ["file:line"] with [line] in decimal, and the
   decimal has no ':', so it splits at the last ':'. A suffix that no
   [int] prints as matches no site. *)
let target_of_loc loc =
  match String.rindex_opt loc ':' with
  | None -> None
  | Some i -> (
      let digits = String.sub loc (i + 1) (String.length loc - i - 1) in
      match int_of_string_opt digits with
      | Some line when String.equal (string_of_int line) digits ->
          Some (String.sub loc 0 i, line)
      | Some _ | None -> None)

let publish m =
  let s = m.stats in
  s.pmem <- Pmem.Heap.take_stats m.heap;
  Obs.Registry.publish
    ~histograms:[ ("sched.runnable", s.runnable) ]
    [ ("sched.machine_runs", 1); ("sched.points", s.points);
      ("sched.context_switches", s.context_switches);
      ("sched.delays_injected", s.delays_injected);
      ("sched.threads_spawned", m.nthreads);
      ("sched.pct_priority_changes", s.pct_priority_changes);
      ("pmem.line_dirties", s.pmem.line_dirties);
      ("pmem.flushes", s.pmem.flushes); ("pmem.fences", s.pmem.fences);
      ("pmem.nt_stores", s.pmem.nt_stores); ("pmem.crash_images", 0) ]

let run ?(seed = 0) ?(policy = Random_interleave)
    ?(sync_config = Sync_config.builtin) ?crash_after_events
    ?crash_after_fences ?(observe = false) ?pm_regions ~heap main =
  let pm =
    match pm_regions with
    | Some r -> r
    | None -> Pmem.Region.all_pm ~size:(Pmem.Heap.size heap)
  in
  let m =
    {
      heap;
      pm;
      decisions = 0;
      trace = Trace.Tracebuf.create ~capacity:4096 ();
      policy;
      sync_config;
      prng = Prng.create seed;
      threads = [||];
      nthreads = 0;
      live = [||];
      nlive = 0;
      cands = [||];
      ready = [||];
      delays =
        (match policy with
        | Delay_injection _ | Targeted_delay _ -> true
        | Random_interleave | Round_robin | Scripted _ | Pct _ -> false);
      last_scheduled = -1;
      events = 0;
      fences = 0;
      crash_after = crash_after_events;
      crash_after_fences;
      crashed = false;
      failure = None;
      next_lock_id = 0;
      pct_changes_left =
        (match policy with Pct { depth } -> max 0 (depth - 1) | _ -> 0);
      pct_low = -1;
      target =
        (match policy with
        | Targeted_delay { store_loc; _ } -> target_of_loc store_loc
        | _ -> None);
      root_frame = { f_id = 0; f_name = ""; f_frames = []; f_children = [] };
      next_frame_id = 1;
      site_idx = Trace.Int_tbl.Map.create ~size:256 ();
      site_spill = Hashtbl.create 8;
      observe;
      last_store = Hashtbl.create (if observe then 4096 else 1);
      obs_seen = Hashtbl.create 64;
      observations = [];
      stats =
        { points = 0; context_switches = 0; delays_injected = 0;
          pct_priority_changes = 0;
          runnable = Obs.Metric.histogram ~bounds:[| 1; 2; 4; 8; 16; 32 |] ();
          (* Zeroes the heap's counts; the run's replace them as it ends. *)
          pmem = Pmem.Heap.take_stats heap };
    }
  in
  let rec main_ref = ref None
  and thunk () =
    match !main_ref with
    | None -> assert false
    | Some th -> main { m; self = th }
  in
  let th = add_thread m thunk in
  main_ref := Some th;
  Obs.Logger.debug ~section:"sched" (fun () ->
      Printf.sprintf "machine start: seed=%d observe=%b" seed observe);
  (* Published before any raise below, and when one escapes [schedule]. *)
  (match schedule m with
  | () -> publish m
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      publish m;
      Printexc.raise_with_backtrace e bt);
  (match m.failure with Some e -> raise e | None -> ());
  if not m.crashed then begin
    let stuck =
      Array.to_list (Array.sub m.threads 0 m.nthreads)
      |> List.filter (fun th -> not th.finished)
    in
    if stuck <> [] then
      raise
        (Deadlock
           (String.concat ", "
              (List.map (fun th -> Printf.sprintf "T%d" th.t_tid) stuck)))
  end;
  {
    outcome = (if m.crashed then Crashed else Completed);
    trace = m.trace;
    event_count = m.events;
    observations = List.rev m.observations;
    thread_count = m.nthreads;
    stats = m.stats;
  }
