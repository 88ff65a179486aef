(** Trace serialization.

    Traces are collected once and analysed offline (or by other tools) —
    the workflow of the paper's pipeline, where instrumentation and
    analysis are separate stages. Two formats read, told apart by their
    first line; {!write} emits v2. A first line that starts
    ["# hawkset-trace "] but names neither version is a {!Parse_error} at
    line 1 (a damaged header), where any other comment line is skipped.

    {b v1}, line-oriented text, one event per line, stable and
    human-greppable:

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

    The trailer holds the event count plus an FNV-1a 64-bit hash of the
    canonical line of every event, each followed by '\n'. Strict readers
    verify it when present; files without one (written before it
    existed) still load. Fields are separated by runs of spaces, and
    integers may be spelled any way [int_of_string] accepts ("007",
    "+5", "0x10", "1_000"); the canonical line uses single spaces and
    plain decimals. Reading scans each line in place in the read buffer,
    hashing a line already in canonical spelling as it stands.

    {b v2}, binary, about 6 bytes an event where v1 takes 46:

    {v
    # hawkset-trace 2\n                        (text header line)
    '@' <file:str> <line:int> <n:uint> <frame:str>*n   (site definition)
    'S' <tid> <addr:int> <size:int> <site>     (store)
    'N' <tid> <addr:int> <size:int> <site>     (non-temporal store)
    'L' <tid> <addr:int> <size:int> <site>     (load)
    'W' | 'O' | 'F' <tid> <line-addr:int> <site>
                                  (clwb | clflushopt | clflush)
    'M' <tid> <site>                           (sfence)
    'A' | 'R' <tid> <lock:uint> <site>         (acquire | release)
    'C' | 'J' <tid> <tid>                      (thread create | join)
    'T' <events:u64> <fnv1a:u64>               (trailer, last)
    v}

    One record per site definition and per event: a tag byte, then
    fields. An int is the LEB128 varint (7 bits a byte, least
    significant first, high bit set on all but the last, at most 9
    bytes, no superfluous last zero byte) of its 63-bit two's-complement
    pattern; a uint ([<tid>] too) is one that must not come out
    negative; a str is a uint length and that many bytes. [<site>] is
    the index of a site definition, counted from 0 in file order, which
    must come before its first use: the writer defines each site of the
    trace's table once, just before the first event that carries it.
    The trailer's fields are 8-byte little-endian: the event count and
    the FNV-1a 64-bit hash of every record byte between the header line
    and the trailer. It is fixed-size so that it can be found at the end
    of a file whose records cannot be followed.

    Both formats are read in 64 KiB chunks, never whole, into a trace
    whose site table ({!Tracebuf.site}) holds each distinct site once,
    shared by every event that carries it: a v2 site definition maps to
    its id there (one defined twice gets one id), and each event is
    pushed with the id of the definition it names. {!fingerprint} and
    {!event_to_line} are defined over the v1 canonical text whatever
    format a trace was read from. *)

exception Parse_error of int * string
(** Position and message. The position is the 1-based line number in a
    v1 file; in a v2 file it is the 1-based record number, counting site
    definitions and the trailer, the first record after the header line
    being 1. *)

type format = V1 | V2

val format_of_file : string -> format
(** The format the file's first line names: [V2] for the v2 header,
    [V1] for anything else, which is read as v1 (or, for a header naming
    an unknown version, is a {!Parse_error} at line 1). Tells how to word
    a {!Parse_error}'s position: a line number, or a record number.
    Raises [Sys_error] on IO failure. *)

val write : out_channel -> Tracebuf.t -> unit
(** Writes v2, defining the trace's sites ({!Tracebuf.site}) in the order
    of their first use. *)

val read : in_channel -> Tracebuf.t
(** Strict read: raises {!Parse_error} on the first malformed line or
    record, and at the trailer when its event count or checksum does not
    match what was read. A v2 file must end with its trailer: a missing
    one is a [Parse_error] at the record where it was due. *)

val save : string -> Tracebuf.t -> unit
(** [save path trace] writes the trace to [path]. *)

val load : string -> Tracebuf.t
(** Raises {!Parse_error} on malformed input and [Sys_error] on IO
    failure. *)

(** Result of a tolerant load: the longest valid prefix plus an account
    of everything that had to be dropped. Never raises {!Parse_error}. *)
type tolerant = {
  salvaged : Tracebuf.t;
      (** Events up to (not including) the first bad line or record. *)
  salvaged_events : int;  (** [Tracebuf.length salvaged]. *)
  dropped_lines : int;
      (** v1: non-blank, non-comment lines not salvaged — the malformed
          line itself plus everything after it. v2: records after a
          malformed one cannot be delimited, so the malformed record and
          all the bytes after it count as one: [1] when [first_error] is
          set. [0] on a clean trace. *)
  first_error : (int * string) option;
      (** Position (as in {!Parse_error}) and message of the first
          malformed line or record, if any. A v2 file that ends at a
          record boundary before its trailer has none: it reads as a
          truncated v1 file does, with [checksum = `Absent]. *)
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
(** The event's canonical v1 line. *)

val event_of_line : string -> Event.t
(** Parses a v1 line. Raises {!Parse_error} (with line number 0). *)

val fingerprint : Tracebuf.t -> string
(** The v1 trailer's FNV-1a hash as 16 hex digits, computed without
    serializing to disk. Equal iff the canonical v1 serializations are
    byte-identical — a compact schedule signature for interleaving
    exploration, the same whichever format the trace was loaded from. *)
