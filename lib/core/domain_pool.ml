(* A small pool of persistent worker domains for job-level width: batch
   jobs ([run_queue]) and explore schedule chunks ([map]).

   [Domain.spawn] costs a thread, a minor heap and a handshake with every
   running domain. The pool spawns each worker once and hands tasks over
   a mutex/condition pair; per-call cost is two lock transitions per
   worker instead of a spawn and a join.

   In [map], task [i] always runs on the same slot — [0] on the caller,
   [i] on worker [i - 1] — so each task's timeline lane is stable. *)

exception Pool_closed

exception Worker_lost of int

type worker = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable task : (unit -> unit) option;
  mutable busy : bool;
  mutable stop : bool;
  mutable dead : bool; (* the worker's loop exited abnormally *)
  mutable domain : unit Domain.t option; (* set right after spawn *)
}

type t = { lock : Mutex.t; mutable workers : worker array; mutable closed : bool }

let worker_loop w () =
  try
    Mutex.lock w.mutex;
    let rec loop () =
      match w.task with
      | Some f ->
          w.task <- None;
          Mutex.unlock w.mutex;
          (* The task itself never raises: [map] wraps it in a catch-all
             that stores the outcome. *)
          f ();
          Mutex.lock w.mutex;
          w.busy <- false;
          Condition.broadcast w.cond;
          loop ()
      | None ->
          if w.stop then Mutex.unlock w.mutex
          else begin
            Condition.wait w.cond w.mutex;
            loop ()
          end
    in
    loop ()
  with _ ->
    (* Watchdog path: tasks cannot raise here ([map] wraps them), so an
       exception means the loop itself died. Mark the slot lost and wake
       any joiner so [await] returns instead of hanging forever; [map]
       then reports the loss as {!Worker_lost}. The unlocked writes are
       single-writer (this domain is about to exit). *)
    w.dead <- true;
    w.busy <- false;
    (try Condition.broadcast w.cond with _ -> ());
    (try Mutex.unlock w.mutex with _ -> ())

let spawn_worker () =
  let w =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      task = None;
      busy = false;
      stop = false;
      dead = false;
      domain = None;
    }
  in
  w.domain <- Some (Domain.spawn (worker_loop w));
  w

let submit w f =
  Mutex.lock w.mutex;
  w.task <- Some f;
  w.busy <- true;
  Condition.broadcast w.cond;
  Mutex.unlock w.mutex

let await w =
  Mutex.lock w.mutex;
  while w.busy && not w.dead do
    Condition.wait w.cond w.mutex
  done;
  Mutex.unlock w.mutex

let create () = { lock = Mutex.create (); workers = [||]; closed = false }

(* Every task runs with its slot bound to the matching timeline lane —
   in [map], task [i] is always slot [i] (caller or worker [i - 1]), so
   lane assignment is deterministic. *)
let run_task i f = Obs.Timeline.with_lane i f

let size t = Array.length t.workers

let ensure t n =
  Mutex.lock t.lock;
  if t.closed then begin
    Mutex.unlock t.lock;
    raise Pool_closed
  end;
  let have = Array.length t.workers in
  if n > have then begin
    let ws = Array.init n (fun i -> if i < have then t.workers.(i) else spawn_worker ()) in
    t.workers <- ws
  end;
  Mutex.unlock t.lock

let map t fns =
  let n = Array.length fns in
  if n = 0 then begin
    (* Even a no-op map on a closed pool is a caller bug worth surfacing. *)
    if t.closed then raise Pool_closed;
    [||]
  end
  else begin
    (* Serialise whole [map] calls: workers hold no per-call state, so
       two concurrent callers would otherwise interleave submissions. *)
    Mutex.lock t.lock;
    if t.closed then begin
      Mutex.unlock t.lock;
      raise Pool_closed
    end;
    let have = Array.length t.workers in
    if n - 1 > have then begin
      t.workers <-
        Array.init (n - 1) (fun i ->
            if i < have then t.workers.(i) else spawn_worker ())
    end;
    (* Self-heal slots lost in an earlier call: the previous [map]
       already reported them as {!Worker_lost}; this call gets a fresh
       domain instead of submitting to a corpse (which would hang). *)
    for i = 0 to n - 2 do
      if t.workers.(i).dead then begin
        (match t.workers.(i).domain with
        | Some d -> ( try Domain.join d with _ -> ())
        | None -> ());
        let ws = Array.copy t.workers in
        ws.(i) <- spawn_worker ();
        t.workers <- ws
      end
    done;
    let results = Array.make n (Error Not_found) in
    let run i () =
      results.(i) <- (try Ok (run_task i (fun () -> fns.(i) ())) with e -> Error e)
    in
    for i = 1 to n - 1 do
      submit t.workers.(i - 1) (run i)
    done;
    (* Task 0 runs here: a 1-task map never touches a worker, and the
       caller's domain contributes instead of idling on the join. *)
    run 0 ();
    for i = 1 to n - 1 do
      await t.workers.(i - 1)
    done;
    (* Watchdog: a worker that died mid-call produced no result — report
       the loss rather than hand back [Error Not_found] silently. *)
    let lost = ref (-1) in
    for i = n - 2 downto 0 do
      if t.workers.(i).dead then lost := i + 1
    done;
    Mutex.unlock t.lock;
    if !lost >= 0 then raise (Worker_lost !lost);
    results
  end

(* Job-level scheduling for the batch supervisor: [n] tasks drained by
   [workers] slots pulling indices off a shared atomic counter. Unlike
   [map] there is no task-per-slot bijection — any slot may run any task
   — so callers must not rely on slot-indexed state; what stays
   deterministic is the *result order* (index [i] of the returned array
   is task [i]'s outcome, wherever it ran). Slot 0 is the caller, slot
   [s >= 1] is worker [s - 1]; each task binds its slot's timeline lane. *)
let run_queue t ~workers fns =
  let n = Array.length fns in
  let slots = max 1 (min workers n) in
  if n = 0 then begin
    if t.closed then raise Pool_closed;
    [||]
  end
  else begin
    (* Same serialisation/heal/grow preamble as [map]: the whole drain
       holds [t.lock], so queue tasks must never re-enter the pool. *)
    Mutex.lock t.lock;
    if t.closed then begin
      Mutex.unlock t.lock;
      raise Pool_closed
    end;
    let have = Array.length t.workers in
    if slots - 1 > have then
      t.workers <-
        Array.init (slots - 1) (fun i ->
            if i < have then t.workers.(i) else spawn_worker ());
    for i = 0 to slots - 2 do
      if t.workers.(i).dead then begin
        (match t.workers.(i).domain with
        | Some d -> ( try Domain.join d with _ -> ())
        | None -> ());
        let ws = Array.copy t.workers in
        ws.(i) <- spawn_worker ();
        t.workers <- ws
      end
    done;
    let results = Array.make n (Error Not_found) in
    let next = Atomic.make 0 in
    let rec drain slot () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <-
          (try Ok (run_task slot (fun () -> fns.(i) ())) with e -> Error e);
        drain slot ()
      end
    in
    for s = 1 to slots - 1 do
      submit t.workers.(s - 1) (drain s)
    done;
    drain 0 ();
    for s = 1 to slots - 1 do
      await t.workers.(s - 1)
    done;
    let lost = ref (-1) in
    for i = slots - 2 downto 0 do
      if t.workers.(i).dead then lost := i + 1
    done;
    Mutex.unlock t.lock;
    if !lost >= 0 then raise (Worker_lost !lost);
    results
  end

let shutdown t =
  Mutex.lock t.lock;
  if t.closed then begin
    (* Idempotent: the first call joined everything already. *)
    Mutex.unlock t.lock;
    ()
  end
  else begin
    t.closed <- true;
    let ws = t.workers in
    t.workers <- [||];
    Mutex.unlock t.lock;
    Array.iter
      (fun w ->
        Mutex.lock w.mutex;
        w.stop <- true;
        Condition.broadcast w.cond;
        Mutex.unlock w.mutex)
      ws;
    Array.iter
      (fun w -> match w.domain with Some d -> Domain.join d | None -> ())
      ws
  end

(* The process-wide pool. Shut down on exit so the runtime does not abort
   on still-running domains. *)
let global_pool = lazy (let t = create () in at_exit (fun () -> shutdown t); t)

let global () = Lazy.force global_pool
