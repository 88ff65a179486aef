(** Append-only checksummed record journal.

    The durability layer under the supervised batch runner: one record
    per line, each carrying its own FNV-1a 64-bit checksum (the same
    hash the {!Trace_io} trailer uses), with an optional length-prefixed
    binary payload for embedded documents (report JSON bytes). The
    format survives being killed mid-write the way a trace file
    survives truncation: {!load} salvages the longest valid prefix and
    reports where the damage starts, it never raises on corruption.

    {v
    # hawkset-journal 1
    R <tag> <nfields> <field>... <payload-len|-1> <fnv16hex>
    <payload-len raw bytes>          (only when payload-len >= 0)
    v}

    Tags and fields are single tokens (no whitespace); payloads are
    arbitrary bytes. The checksum covers the tag, the fields and the
    payload, so a record whose line survived but whose payload was cut
    is rejected along with everything after it. *)

type record = {
  tag : string;  (** Single token naming the record kind. *)
  fields : string list;  (** Tokens; no spaces, newlines or empties. *)
  payload : string option;  (** Arbitrary bytes, length-prefixed on disk. *)
}

val fnv_offset : int64
(** The FNV-1a 64-bit offset basis: the hash of no bytes. *)

val fnv_fold : int64 -> string -> int64
(** [fnv_fold h s] continues an FNV-1a 64-bit hash [h] over the bytes
    of [s]. *)

val fnv_fold_bytes : int64 -> bytes -> int -> int -> int64
(** [fnv_fold_bytes h b off len] continues [h] over the [len] bytes of
    [b] from [off], without copying them out. Raises [Invalid_argument]
    when the range does not lie within [b]. *)

val fnv_hex : string -> string
(** FNV-1a 64-bit hash of a byte string as 16 hex digits — the
    {!Trace_io} trailer's hash, exposed for fingerprinting journal-level
    identities (e.g. a batch's job-set declaration). *)

type writer

val create : string -> writer
(** Truncate (or create) the file and write the journal header. *)

val append : string -> writer
(** Open an existing journal for appending; equivalent to {!create}
    when the file does not exist. The caller is responsible for having
    validated the existing contents (normally via {!load}). *)

val add : writer -> record -> unit
(** Append one record and flush it to the OS, so a killed process loses
    at most the record being written. Raises [Invalid_argument] if the
    tag or a field is not a single non-empty token. *)

val close : writer -> unit

(** Result of a tolerant load: the longest valid prefix. *)
type load_result = {
  l_records : record list;  (** Records up to the first damage, in order. *)
  l_complete : bool;  (** [true] when the whole file parsed and verified. *)
  l_first_error : (int * string) option;
      (** Line number and message of the first damaged record, if any. *)
}

val load : string -> load_result
(** Salvage what can be salvaged: stops at the first malformed line,
    checksum mismatch or truncated payload and returns everything before
    it. Only [Sys_error] (file unreadable) escapes. *)
