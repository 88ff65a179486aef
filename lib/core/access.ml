type end_kind =
  | Persisted_same_thread
  | Persisted_other_thread
  | Overwritten_same_thread
  | Overwritten_other_thread
  | Open_at_exit

type window = {
  w_tid : int;
  w_addr : int;
  w_size : int;
  w_site : Trace.Site.t;
  w_store_ls : int;
  w_eff : int;
  w_store_vec : int;
  w_end_vec : int option;
  w_end : end_kind;
}

type load = {
  l_tid : int;
  l_addr : int;
  l_size : int;
  l_site : Trace.Site.t;
  l_ls : int;
  l_vec : int;
}

module Ls_table = struct
  include Trace.Interner.Make (struct
    type t = Lockset.t

    let equal = Lockset.equal
    let hash = Lockset.hash
  end)

  let create () = create ()
end

module Vc_table = struct
  include Trace.Interner.Make (struct
    type t = Vclock.t

    let equal = Vclock.equal
    let hash = Vclock.hash
  end)

  let create () = create ()
end

type tables = { ls : Ls_table.t; vc : Vc_table.t }

let create_tables () = { ls = Ls_table.create (); vc = Vc_table.create () }
