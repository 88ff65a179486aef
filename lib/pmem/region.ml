type region = { r_name : string; r_addr : int; r_size : int }

type t = { mutable sorted : region list (* by base address *) }

let create () = { sorted = [] }

let overlaps a b =
  Layout.ranges_overlap a.r_addr a.r_size b.r_addr b.r_size

let register t ~name ~addr ~size =
  if addr < 0 || size <= 0 then invalid_arg "Region.register: bad range";
  let r = { r_name = name; r_addr = addr; r_size = size } in
  if List.exists (overlaps r) t.sorted then
    invalid_arg "Region.register: overlapping region";
  t.sorted <-
    List.sort (fun a b -> compare a.r_addr b.r_addr) (r :: t.sorted)

let find t addr =
  let rec go = function
    | [] -> None
    | r :: rest ->
        if addr < r.r_addr then None
        else if addr < r.r_addr + r.r_size then
          Some (r.r_name, r.r_addr, r.r_size)
        else go rest
  in
  go t.sorted

let is_pm t addr =
  let rec go = function
    | [] -> false
    | r :: rest ->
        addr >= r.r_addr && (addr < r.r_addr + r.r_size || go rest)
  in
  go t.sorted

let regions t = List.map (fun r -> (r.r_name, r.r_addr, r.r_size)) t.sorted

let all_pm ~size =
  let t = create () in
  register t ~name:"/mnt/pmem/pool" ~addr:0 ~size;
  t
