(** Trace serialization.

    A simple line-oriented text format, one event per line, so traces can
    be collected once and analysed offline (or by other tools) — the
    workflow of the paper's pipeline, where instrumentation and analysis
    are separate stages. The format is stable and human-greppable:

    {v
    # hawkset-trace 1
    S <tid> <addr> <size> <nt:0|1> <file>:<line> [frame;frame...]
    L <tid> <addr> <size> <file>:<line> [frames]
    F <tid> <line-addr> <clwb|clflushopt|clflush> <file>:<line> [frames]
    M <tid> <file>:<line> [frames]            (sfence)
    A <tid> <lock> <file>:<line> [frames]     (acquire)
    R <tid> <lock> <file>:<line> [frames]     (release)
    C <parent> <child>                        (thread create)
    J <waiter> <joined>                       (thread join)
    # trailer events=<n> fnv1a=<16-hex>       (integrity trailer)
    v}

    [write] appends an integrity trailer: the event count plus an FNV-1a
    64-bit hash of the canonical serialization of every event. Strict
    readers verify it when present; {!load_tolerant} downgrades any
    corruption to a report and salvages the valid prefix. Traces written
    before the trailer existed (no trailer line) still load.

    Fields are separated by runs of spaces, and integers may be spelled
    any way [int_of_string] accepts ("007", "+5", "0x10", "1_000"); the
    canonical line, which [write] emits, uses single spaces and plain
    decimals. Reading scans each line in place in the read buffer.
    Loaded events share one [Site.t] per distinct site text, so a trace
    holds each site once, however many events carry it. [read] verifies the trailer without
    re-serialising: a line already in canonical spelling is hashed as it
    stands, and any other spelling through the encoder. [write],
    [fingerprint] and [event_to_line] share one Printf-free encoder. *)

exception Parse_error of int * string
(** Line number and message. *)

val write : out_channel -> Tracebuf.t -> unit

val read : in_channel -> Tracebuf.t
(** Strict read: raises {!Parse_error} on the first malformed line, and
    at the trailer's line number when the trailer is present but its
    event count or checksum does not match the events read. *)

val save : string -> Tracebuf.t -> unit
(** [save path trace] writes the trace to [path]. *)

val load : string -> Tracebuf.t
(** Raises {!Parse_error} on malformed input and [Sys_error] on IO
    failure. *)

(** Result of a tolerant load: the longest valid prefix plus an account
    of everything that had to be dropped. Never raises {!Parse_error}. *)
type tolerant = {
  salvaged : Tracebuf.t;  (** Events up to (not including) the first bad line. *)
  salvaged_events : int;  (** [Tracebuf.length salvaged]. *)
  dropped_lines : int;
      (** Non-blank, non-comment lines not salvaged — the malformed line
          itself plus everything after it. [0] on a clean trace. *)
  first_error : (int * string) option;
      (** Line number and message of the first malformed line, if any. *)
  checksum : [ `Verified | `Mismatch | `Absent ];
      (** Trailer status: [`Verified] when present and matching the
          salvaged events, [`Mismatch] when present but disagreeing
          (corruption, or events were dropped), [`Absent] when the file
          has no trailer (pre-trailer trace, or truncated before it). *)
}

val read_tolerant : in_channel -> tolerant

val load_tolerant : string -> tolerant
(** Salvage what can be salvaged. Only [Sys_error] (file unreadable)
    escapes. *)

val event_to_line : Event.t -> string
val event_of_line : string -> Event.t
(** Raises {!Parse_error} (with line number 0). *)

val fingerprint : Tracebuf.t -> string
(** The trailer's FNV-1a hash as 16 hex digits, computed without
    serializing to disk. Equal iff the canonical serializations are
    byte-identical — a compact schedule signature for interleaving
    exploration. *)
