type t = {
  mutable events : Event.t array;
  mutable len : int;
}

let dummy =
  Event.Fence { tid = Tid.main; site = Site.none }

let create ?(capacity = 1024) () =
  { events = Array.make (max capacity 1) dummy; len = 0 }

let grow t =
  let cap = Array.length t.events in
  let events = Array.make (2 * cap) dummy in
  Array.blit t.events 0 events 0 t.len;
  t.events <- events

let push t ev =
  if t.len = Array.length t.events then grow t;
  t.events.(t.len) <- ev;
  t.len <- t.len + 1

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Tracebuf.get: index out of bounds";
  t.events.(i)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.events.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.events.(i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.events.(i)
  done;
  !acc

let to_list t = List.init t.len (fun i -> t.events.(i))

let prefix t n =
  let n = max 0 (min n t.len) in
  let events = Array.make (max n 1) dummy in
  Array.blit t.events 0 events 0 n;
  { events; len = n }

let of_list evs =
  let t = create ~capacity:(max 1 (List.length evs)) () in
  List.iter (push t) evs;
  t

type stats = {
  stores : int;
  loads : int;
  flushes : int;
  fences : int;
  lock_ops : int;
  thread_ops : int;
}

let stats t =
  let stores = ref 0 and loads = ref 0 and flushes = ref 0 and fences = ref 0
  and lock_ops = ref 0 and thread_ops = ref 0 in
  for i = 0 to t.len - 1 do
    match t.events.(i) with
    | Event.Store _ -> incr stores
    | Event.Load _ -> incr loads
    | Event.Flush _ -> incr flushes
    | Event.Fence _ -> incr fences
    | Event.Lock_acquire _ | Event.Lock_release _ -> incr lock_ops
    | Event.Thread_create _ | Event.Thread_join _ -> incr thread_ops
  done;
  { stores = !stores; loads = !loads; flushes = !flushes; fences = !fences;
    lock_ops = !lock_ops; thread_ops = !thread_ops }

let pp_stats ppf s =
  Format.fprintf ppf
    "stores=%d loads=%d flushes=%d fences=%d lock_ops=%d thread_ops=%d"
    s.stores s.loads s.flushes s.fences s.lock_ops s.thread_ops
