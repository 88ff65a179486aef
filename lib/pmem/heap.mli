(** Persistent-memory heap with a worst-case cache simulator.

    The heap models a PM region mapped into the address space (the paper's
    [mmap]-of-a-PM-file model, §4) together with the volatile cache that
    sits in front of it. Two byte images are maintained:

    - the {e volatile} image: what loads observe (cache contents — data is
      visible to other threads as soon as it is stored, §2.1);
    - the {e persistent} image: what survives a crash.

    Following the paper's worst-case cache (§3.2, stage 1), data moves from
    volatile to persistent {e only} when a flush of its cache line is
    followed by a fence issued by the flushing thread — never by background
    evictions. Non-temporal stores bypass the cache and persist at the
    issuing thread's next fence.

    The heap also provides an allocator with address reuse (freed blocks
    are recycled LIFO), which reproduces the PM-reuse pattern that defeats
    the Initialization Removal Heuristic in Memcached-pmem (§5.4, §7). *)

type t

val create : ?name:string -> ?eadr:bool -> size:int -> unit -> t
(** [create ~size ()] maps a fresh, zero-initialised PM region of [size]
    bytes. [name] models the PM file path (default ["/mnt/pmem/pool"]).

    [size] is an address-space limit, not an up-front allocation: both
    images are stored as fixed 64 KiB chunks that read as zero until their
    first write allocates them, so a heap costs memory only for the chunks
    a run actually writes (see {!resident_bytes}). Accesses outside
    [0, size) raise [Invalid_argument] and {!alloc} raises
    [Out_of_memory] past [size].

    [eadr] (default [false]) models extended Asynchronous DRAM Refresh
    (§2.1): the persistent domain extends to the cache, so every store is
    durable the moment it becomes visible — flushes and fences become
    no-ops and crash images lose nothing. The paper's position is that
    applications must NOT rely on it; the flag exists to demonstrate that
    persistency-induced races vanish on such hardware. *)

val size : t -> int
val name : t -> string

(** {1 Allocation} *)

val alloc : ?align:int -> t -> int -> int
(** [alloc t n] returns the address of an [n]-byte block, reusing a freed
    block of the same size when one exists (most recently freed first),
    otherwise bumping. [align] (default 8, must be a power of two) aligns
    fresh blocks; recycled blocks keep their original alignment. Reused
    blocks keep their previous contents — PM allocators do not zero.
    Raises [Out_of_memory] when the region is exhausted. *)

val free : t -> addr:int -> size:int -> unit
(** Returns a block to the allocator for reuse. *)

(** {1 Data access (volatile image)} *)

val read_i64 : t -> int -> int64
val write_i64 : t -> int -> int64 -> unit
val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_bytes : t -> int -> int -> bytes
val write_bytes : t -> int -> bytes -> unit

(** {1 Cache simulation} *)

val note_store : t -> tid:Trace.Tid.t -> addr:int -> size:int ->
  non_temporal:bool -> unit
(** Marks the bytes dirty in cache (or queues them in the thread's
    write-combining buffer for non-temporal stores). Call after writing
    the data through the access functions above. *)

val dirty_conflict : t -> tid:Trace.Tid.t -> addr:int -> size:int ->
  Trace.Tid.t option
(** [dirty_conflict t ~tid ~addr ~size] is [Some writer] when some byte of
    the range is dirty in cache and was last written by a thread other
    than [tid] — i.e. this load observes visible-but-not-durable data
    written by another thread. This is the runtime observation the PMRace
    baseline needs to witness directly. *)

val flush : t -> tid:Trace.Tid.t -> line:int -> unit
(** Initiates write-back of the cache line at line-aligned address [line]:
    the line's current contents are snapshotted and will reach the
    persistent image at [tid]'s next fence. A later store to the line
    re-dirties it (the snapshot still persists, but the newer data does
    not). *)

val fence : t -> tid:Trace.Tid.t -> unit
(** Completes all pending flushes and non-temporal stores issued by
    [tid]. A flushed snapshot older than one already committed for its
    line is dropped: write-backs of a line never go back in time. *)

type stats = private {
  mutable line_dirties : int;  (** Lines dirtied, counted per store. *)
  mutable flushes : int;
  mutable fences : int;
  mutable nt_stores : int;
}

val take_stats : t -> stats
(** The counts since the heap was created or last taken, which are reset
    to zero: the machine takes its run's share when the run ends. *)

val persisted_range : t -> addr:int -> size:int -> bool
(** [true] when no byte of the range is dirty, i.e. the volatile and
    persistent images agree by construction. *)

val dirty_lines : t -> int
(** Number of cache lines currently holding unpersisted data. *)

val unpersisted_bytes : t -> int
(** Number of bytes whose volatile and persistent images may disagree —
    data a crash at this instant would lose. The crash sweep records this
    as the at-risk volume at each crash point. *)

(** {1 Crash simulation} *)

val crash_image : t -> bytes
(** Copy of the persistent image: exactly what a post-crash execution
    would observe. All unpersisted stores are lost. *)

val resident_bytes : t -> int
(** Memory the two images hold: allocated chunks times the chunk size,
    summed over the volatile and the persistent image. Untouched chunks
    cost nothing. *)

val of_image : ?name:string -> bytes -> t
(** [of_image img] builds the post-crash heap: both images equal [img],
    the cache is clean, the allocator restarts (recovery code re-derives
    structure from the data, as PM applications do). All-zero chunks of
    [img] stay unallocated. *)
