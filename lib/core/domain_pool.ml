(* A small pool of persistent worker domains for job-level width: batch
   jobs ([run_queue]) and explore schedule chunks ([map]).

   [Domain.spawn] costs a thread, a minor heap and a handshake with every
   running domain. The pool spawns each worker once and hands tasks over
   a mutex/condition pair; per-call cost is two lock transitions per
   worker instead of a spawn and a join.

   Both entry points are shapes over one slot driver, [drive]: slot 0 is
   the caller, slot [s >= 1] is worker [s - 1]. A call that needs one
   slot runs inline on the caller and never touches the workers. *)

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

(* One timeline lane per slot: the caller plus [max_lanes - 1] workers. *)
let max_slots = Obs.Timeline.max_lanes

let worker_loop w () =
  try
    Mutex.lock w.mutex;
    let rec loop () =
      match w.task with
      | Some f ->
          w.task <- None;
          Mutex.unlock w.mutex;
          (* The task itself never raises: [map] and [run_queue] wrap
             every task in a catch-all that stores the outcome. *)
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
    (* Watchdog path: tasks cannot raise here, so an exception means the
       loop itself died. Mark the slot lost and wake any joiner so
       [await] returns instead of hanging forever; [drive] then reports
       the loss as {!Worker_lost}. The unlocked writes are single-writer
       (this domain is about to exit). *)
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

let size t = Array.length t.workers

(* The slot driver behind [ensure], [map] and [run_queue]: [body s] for
   every slot [s] in [0, slots); [body] must not raise.

   One slot runs inline on the caller, with the caller's timeline lane
   and no pool lock, so it never waits on (or deadlocks against) a wider
   call. Wider calls hold the pool lock for the whole call — concurrent
   calls from different domains are serialised — and bind slot [s] to
   lane [s]. *)
let drive t ~slots body =
  if slots > max_slots then
    invalid_arg
      (Printf.sprintf "Domain_pool: %d slots requested (max %d)" slots max_slots);
  if slots <= 1 then begin
    if t.closed then raise Pool_closed;
    if slots = 1 then body 0
  end
  else begin
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        if t.closed then raise Pool_closed;
        (* Workers join one at a time, so a spawn failure part-way keeps
           the ones already spawned for [shutdown] to join. *)
        while Array.length t.workers < slots - 1 do
          t.workers <- Array.append t.workers [| spawn_worker () |]
        done;
        (* Self-heal slots lost in an earlier call: that call already
           reported them as {!Worker_lost}; this one gets a fresh domain
           instead of submitting to a corpse (which would hang). *)
        for i = 0 to slots - 2 do
          let w = t.workers.(i) in
          if w.dead then begin
            (match w.domain with
            | Some d -> ( try Domain.join d with _ -> ())
            | None -> ());
            let ws = Array.copy t.workers in
            ws.(i) <- spawn_worker ();
            t.workers <- ws
          end
        done;
        let on_lane s () = Obs.Timeline.with_lane s (fun () -> body s) in
        for s = 1 to slots - 1 do
          submit t.workers.(s - 1) (on_lane s)
        done;
        on_lane 0 ();
        for s = 1 to slots - 1 do
          await t.workers.(s - 1)
        done;
        (* Watchdog: a worker that died mid-call produced no result —
           report the loss rather than hand back [Error Not_found]. *)
        for s = 1 to slots - 1 do
          if t.workers.(s - 1).dead then raise (Worker_lost s)
        done)
  end

(* Growing the pool is a call whose every slot does nothing. *)
let ensure t n = drive t ~slots:(n + 1) ignore

let capture f = try Ok (f ()) with e -> Error e

(* Task [i] always runs on slot [i], so its timeline lane is stable. *)
let map t fns =
  let results = Array.map (fun _ -> Error Not_found) fns in
  drive t ~slots:(Array.length fns) (fun i -> results.(i) <- capture fns.(i));
  results

(* Slots pull task indices off a shared counter: any slot may run any
   task, so only the result order is deterministic. *)
let run_queue t ~workers fns =
  let n = Array.length fns in
  let results = Array.map (fun _ -> Error Not_found) fns in
  let next = Atomic.make 0 in
  let rec drain () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <- capture fns.(i);
      drain ()
    end
  in
  drive t ~slots:(min (max 1 workers) n) (fun _ -> drain ());
  results

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
