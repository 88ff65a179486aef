(* Open-addressing hash tables specialised to non-negative int keys.

   The stdlib [Hashtbl] allocates a bucket cell per insertion and (for
   the tuple keys these tables replace) a key tuple per probe. These
   tables store keys (and values) in flat int arrays with linear
   probing: probes and insertions never allocate, and [clear] retains
   the capacity — which is what makes the analysis memo tables "warm"
   when a domain pool reuses them across runs. Empty slots are marked
   with -1, so keys must be >= 0 (packed keys always are). There is no
   deletion: a table only grows until [clear]. *)

let empty_key = -1

(* Fibonacci-style multiplicative mixing. The low bits of a product
   depend only on the low bits of [k], so the high half is folded down
   before [land mask]: packed keys that differ only in their high fields
   would otherwise all probe from one slot. The multiplier is the 64-bit
   golden-ratio constant truncated to an OCaml int. *)
let hash k =
  let h = k * 0x2545F4914F6CDD1D in
  h lxor (h lsr 32)

module Set = struct
  type t = { mutable keys : int array; mutable mask : int; mutable count : int }

  let rec ceil_pow2 n c = if c >= n then c else ceil_pow2 n (c * 2)

  let create ?(size = 8) () =
    let cap = ceil_pow2 (max 8 size) 8 in
    { keys = Array.make cap empty_key; mask = cap - 1; count = 0 }

  let length t = t.count

  (* Linear probe: stops at [k]'s slot or the first empty one, which is
     where [k] belongs. *)
  let rec probe keys mask k i =
    let slot = keys.(i) in
    if slot = empty_key || slot = k then i else probe keys mask k ((i + 1) land mask)

  let index t k = probe t.keys t.mask k (hash k land t.mask)

  (* Double the capacity and re-place every key. *)
  let grow t =
    let old = t.keys in
    let cap = 2 * Array.length old in
    t.keys <- Array.make cap empty_key;
    t.mask <- cap - 1;
    Array.iter (fun k -> if k >= 0 then t.keys.(index t k) <- k) old

  let mem t k = t.keys.(index t k) = k

  (* [add t k] inserts [k] and reports whether it was absent — the dedup
     hot path, one probe for both the membership test and the insert. *)
  let add t k =
    let i = index t k in
    if t.keys.(i) = k then false
    else begin
      t.keys.(i) <- k;
      t.count <- t.count + 1;
      if 2 * t.count > t.mask then grow t;
      true
    end

  let clear t =
    if t.count > 0 then begin
      Array.fill t.keys 0 (Array.length t.keys) empty_key;
      t.count <- 0
    end

  let iter f t =
    Array.iter (fun k -> if k >= 0 then f k) t.keys
end

module Map = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable mask : int;
    mutable count : int;
  }

  let create ?(size = 8) () =
    let cap = Set.ceil_pow2 (max 8 size) 8 in
    { keys = Array.make cap empty_key; vals = Array.make cap 0;
      mask = cap - 1; count = 0 }

  let length t = t.count

  let index t k = Set.probe t.keys t.mask k (hash k land t.mask)

  let grow t =
    let okeys = t.keys and ovals = t.vals in
    let cap = 2 * Array.length okeys in
    t.keys <- Array.make cap empty_key;
    t.vals <- Array.make cap 0;
    t.mask <- cap - 1;
    Array.iteri
      (fun i k ->
        if k >= 0 then begin
          let j = index t k in
          t.keys.(j) <- k;
          t.vals.(j) <- ovals.(i)
        end)
      okeys

  (* Values must be >= 0: [find] returns -1 for an absent key so the
     memo lookup is a single probe with no option allocation. *)
  let find t k =
    let i = index t k in
    if t.keys.(i) = k then t.vals.(i) else -1

  let set t k v =
    let i = index t k in
    if t.keys.(i) = k then t.vals.(i) <- v
    else begin
      t.keys.(i) <- k;
      t.vals.(i) <- v;
      t.count <- t.count + 1;
      if 2 * t.count > t.mask then grow t
    end

  let clear t =
    if t.count > 0 then begin
      Array.fill t.keys 0 (Array.length t.keys) empty_key;
      t.count <- 0
    end

  let iter_keys f t =
    Array.iter (fun k -> if k >= 0 then f k) t.keys
end
