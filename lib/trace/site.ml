type t = { file : string; line : int; frames : string list }

let none = { file = "<none>"; line = 0; frames = [] }

let of_pos ?(frames = []) (file, line, _, _) = { file; line; frames }
let v ?(frames = []) file line = { file; line; frames }
let location t = Printf.sprintf "%s:%d" t.file t.line

let equal a b =
  String.equal a.file b.file && a.line = b.line
  && List.equal String.equal a.frames b.frames

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c else List.compare String.compare a.frames b.frames

(* The hash of the tuple (file, line, frames), which has the record's shape. *)
let hash (t : t) = Hashtbl.hash t
let pp ppf t = Format.fprintf ppf "%s:%d" t.file t.line

let pp_backtrace ppf t =
  pp ppf t;
  List.iter (fun f -> Format.fprintf ppf "@\n    in %s" f) t.frames
