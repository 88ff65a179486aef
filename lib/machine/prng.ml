(* The splitmix64 state lives unboxed in 8 bytes: [Bytes.get_int64_ne]
   and [set_int64_ne] read and write it without a box, so a draw that
   returns an [int], a [float] or a [bool] allocates nothing (the
   scheduler draws once per decision). *)
type t = bytes

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let golden = 0x9E3779B97F4A7C15L

let[@inline] next t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 z;
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t = next t
let split t = of_state (next t)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: non-positive bound";
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next t) 1L = 1L
