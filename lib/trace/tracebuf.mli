(** Execution traces.

    A trace is the append-only sequence of events collected while running
    an application under the instrumented runtime. Positions in the trace
    define a total order per execution; the analysis refers back to events
    by index.

    A trace owns its site table: every distinct site ([Site.equal]) its
    events carry has one integer id, dense from [0], and each event is
    stored with the id of its site beside it — the backtrace ids of the
    paper's implementation (§4), which every access record shares. This
    table is the one place a site is hashed: producers that already know
    an event's id (the machine, which interns each static site once, and
    the v2 loader, once per site definition) push with it, and consumers
    (the collector, the v2 writer) read ids instead of keeping tables of
    their own. *)

type t

val create : ?capacity:int -> unit -> t

val add_site : t -> Site.t -> int
(** [add_site t s] is the id of [s] in [t]'s site table, allocating the
    next one the first time a site equal to [s] is added. *)

val site : t -> int -> Site.t
(** [site t id] is the site registered under [id]: the first value
    added under it, so events whose sites are equal share it. Raises
    [Invalid_argument] for an unknown id. *)

val site_count : t -> int
(** Number of distinct sites in the table; ids are [0 .. site_count - 1]. *)

val push_with_site : t -> Event.t -> int -> unit
(** [push_with_site t ev id] appends [ev] whose site has id [id] — the
    value [add_site t] gives for that site — or [-1] for a thread event,
    which has none. Raises [Invalid_argument] when [id] is neither [-1]
    nor a known id; that [id] names [ev]'s site is the caller's
    contract. *)

val push : t -> Event.t -> unit
(** [push t ev] is [push_with_site t ev] with the id of [ev]'s site,
    added to the table when new: one structural hash per event. *)

val length : t -> int

val get : t -> int -> Event.t
(** [get t i] is the [i]-th event. Raises [Invalid_argument] when out of
    bounds. *)

val site_id : t -> int -> int
(** [site_id t i] is the id of the [i]-th event's site, [-1] for a
    thread event: [site t (site_id t i)] is equal to the event's site.
    Raises [Invalid_argument] when out of bounds. *)

val iter : (Event.t -> unit) -> t -> unit
val iteri : (int -> Event.t -> unit) -> t -> unit
val fold : ('a -> Event.t -> 'a) -> 'a -> t -> 'a
val to_list : t -> Event.t list

val of_list : Event.t list -> t
(** Builds a trace directly, used by tests that hand-craft executions. *)

val prefix : t -> int -> t
(** [prefix t n] is a fresh trace holding the first [n] events of [t]
    (all of them when [n >= length t]) and their site ids, with a site
    table of its own that gives every site [t]'s id. Used by the
    pipeline's event budget to analyse a bounded prefix of an oversized
    trace. *)

(** Per-kind event counts, used by trace statistics and the evaluation
    harness. *)
type stats = {
  stores : int;
  loads : int;
  flushes : int;
  fences : int;
  lock_ops : int;
  thread_ops : int;
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
