(** PM access records produced by stage 1+2 and consumed by stage 3.

    Locksets and vector clocks are interned ({!tables}): records carry
    integer ids, giving O(1) equality, cheap hashing and the memory
    sharing described in §4 ("locksets and vector clocks are shared across
    PM accesses ... unique and identifiable by a unique integer"). *)

(** How a store's visible-but-not-durable window ended. *)
type end_kind =
  | Persisted_same_thread
      (** Explicit flush+fence by the storing thread. *)
  | Persisted_other_thread
      (** Flushed/fenced by another thread: no lock can span the window
          atomically, so the effective lockset is empty. *)
  | Overwritten_same_thread
  | Overwritten_other_thread
  | Open_at_exit
      (** Never persisted nor overwritten: the window never closes, the
          missing-persistence bug family (§5.1). *)

(** A store's lifetime window on one 8-byte word (§3.1.2): from the store
    that makes the value visible until its explicit persistency or
    overwrite. *)
type window = {
  w_tid : int;
  w_addr : int;  (** Byte address of the original store. *)
  w_size : int;
  w_site : Trace.Site.t;
  w_store_ls : int;  (** Lockset id at store time. *)
  w_eff : int;  (** Effective lockset id. *)
  w_store_vec : int;  (** Vector clock id at store time. *)
  w_end_vec : int option;  (** Clock id at window end; [None] = open. *)
  w_end : end_kind;
}

type load = {
  l_tid : int;
  l_addr : int;
  l_size : int;
  l_site : Trace.Site.t;
  l_ls : int;  (** Lockset id at the load. *)
  l_vec : int;  (** Vector clock id at the load. *)
}

module Ls_table : sig
  type t

  val create : unit -> t
  val intern : t -> Lockset.t -> int
  val get : t -> int -> Lockset.t
  val count : t -> int
end

module Vc_table : sig
  type t

  val create : unit -> t
  val intern : t -> Vclock.t -> int
  val get : t -> int -> Vclock.t
  val count : t -> int
end

type tables = { ls : Ls_table.t; vc : Vc_table.t }

val create_tables : unit -> tables
