(** Open-addressing hash tables for non-negative int keys.

    Allocation-free probes and inserts (flat int arrays, linear
    probing); [clear] keeps the capacity, so a table reused across runs
    stays "warm". Keys must be [>= 0] — packed keys ({!Packed_key})
    always are; -1 is the internal empty-slot marker. There is no
    removal: a table only grows (doubling past half full) until
    [clear]. *)

module Set : sig
  type t

  val create : ?size:int -> unit -> t
  val length : t -> int

  val add : t -> int -> bool
  (** [add t k] inserts [k]; [true] iff it was absent (the dedup test
      and the insert in a single probe). *)

  val mem : t -> int -> bool

  val clear : t -> unit
  val iter : (int -> unit) -> t -> unit
end

module Map : sig
  type t

  val create : ?size:int -> unit -> t
  val length : t -> int

  val find : t -> int -> int
  (** [find t k] is the value bound to [k], or [-1] when absent — values
      must therefore be [>= 0] (the memo tables store 0/1). *)

  val set : t -> int -> int -> unit

  val clear : t -> unit
  val iter_keys : (int -> unit) -> t -> unit
end
