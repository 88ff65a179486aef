(** Seeded kernel faults for the conformance fuzzer's self-test.

    Each fault names one deliberate, localized corruption of a production
    kernel layer — the collector's publication tracking, the analysis
    kernel's lockset and vector-clock checks, the packed memo keys, the
    report aggregation. [hawkset check --mutate] flips one fault at a
    time and asserts that the differential fuzzer detects and minimizes
    it; a fault that survives fuzzing would mean the executable
    specification ({!Reference}) cannot actually distinguish a broken
    kernel from a correct one.

    The reference specification must never consult this module: a fault
    that corrupted both sides identically would be invisible. Hooks live
    only in {!Collector}, {!Analysis} and {!Report}.

    Faults default to off and cost one ref read when probed; production
    paths only probe behind a single [enabled] check. *)

type t =
  | Drop_lockset_intersection
      (** Analysis kernel: the store/load lockset disjointness test
          always passes — common locks no longer suppress a report. *)
  | Skip_vclock_check
      (** Analysis kernel: the happens-before window filter is skipped —
          ordered pairs are reported as concurrent. *)
  | Widen_packed_key
      (** Memo layer: the packed pair key keeps only the low bit of its
          first id, so distinct (lockset, lockset) and (vclock, vclock)
          pairs collide and reuse each other's cached verdicts. *)
  | Publish_before_touch
      (** Collector stage 2: every word is born published, so the
          Initialization Removal Heuristic never discards anything. *)
  | Last_witness_wins
      (** Report aggregation: a repeated (store, load) site pair
          overwrites the stored witness instead of keeping the first. *)

val all : t list
(** Every fault, in declaration order — one per kernel layer. *)

val name : t -> string
(** Stable kebab-case name, e.g. ["drop-lockset-intersection"]. *)

val of_name : string -> (t, string) result
(** Inverse of {!name}; the error lists the valid names. *)

val layer : t -> string
(** The kernel layer the fault corrupts (["collector"], ["analysis"],
    ["memo"], ["report"]). *)

val describe : t -> string

val set : t option -> unit
(** Arm one fault (or disarm with [None]). Not thread-safe; arm before
    spawning analysis domains. *)

val get : unit -> t option

val on : t -> bool
(** [on f] is [true] iff [f] is the armed fault. Cheap enough for hot
    paths: a ref read and an immediate comparison when disarmed. *)

val with_fault : t -> (unit -> 'a) -> 'a
(** Run the thunk with the fault armed, restoring the previous state
    even on exceptions. *)
