module Sites = Interner.Make (Site)

(* Event [i]'s site id is the 32-bit int at byte [4 * i] of [site_ids]:
   bytes, unlike an [int array], cost the major GC no marking and take
   half the space. Every id fits: 2^31 distinct sites would not fit in
   memory. *)
type t = {
  mutable events : Event.t array;
  mutable site_ids : Bytes.t;
  mutable len : int;
  sites : Sites.t;
}

let dummy =
  Event.Fence { tid = Tid.main; site = Site.none }

let create ?(capacity = 1024) () =
  let cap = max capacity 1 in
  { events = Array.make cap dummy; site_ids = Bytes.create (4 * cap); len = 0;
    sites = Sites.create () }

let grow t =
  let cap = Array.length t.events in
  let events = Array.make (2 * cap) dummy in
  Array.blit t.events 0 events 0 t.len;
  t.events <- events;
  let site_ids = Bytes.create (8 * cap) in
  Bytes.blit t.site_ids 0 site_ids 0 (4 * t.len);
  t.site_ids <- site_ids

let add_site t s = Sites.intern t.sites s
let site t id = Sites.get t.sites id
let site_count t = Sites.count t.sites

let push_with_site t ev id =
  if id < -1 || id >= Sites.count t.sites then
    invalid_arg "Tracebuf.push_with_site: unknown site id";
  if t.len = Array.length t.events then grow t;
  t.events.(t.len) <- ev;
  Bytes.set_int32_le t.site_ids (4 * t.len) (Int32.of_int id);
  t.len <- t.len + 1

let push t ev =
  push_with_site t ev
    (match ev with
    | Event.Store { site; _ }
    | Event.Load { site; _ }
    | Event.Flush { site; _ }
    | Event.Fence { site; _ }
    | Event.Lock_acquire { site; _ }
    | Event.Lock_release { site; _ } ->
        add_site t site
    | Event.Thread_create _ | Event.Thread_join _ -> -1)

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Tracebuf.get: index out of bounds";
  t.events.(i)

let site_id t i =
  if i < 0 || i >= t.len then
    invalid_arg "Tracebuf.site_id: index out of bounds";
  Int32.to_int (Bytes.get_int32_le t.site_ids (4 * i))

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

(* The prefix gets its own table holding the same sites under the same
   ids, so pushing onto it never adds to [t]'s. *)
let prefix t n =
  let n = max 0 (min n t.len) in
  let events = Array.make (max n 1) dummy in
  Array.blit t.events 0 events 0 n;
  let site_ids = Bytes.create (4 * max n 1) in
  Bytes.blit t.site_ids 0 site_ids 0 (4 * n);
  let sites = Sites.create () in
  Sites.iter (fun _ s -> ignore (Sites.intern sites s : int)) t.sites;
  { events; site_ids; len = n; sites }

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
