(* Metric primitives. Counters and histograms are bumped on deterministic
   control paths only, so for a fixed scheduler seed their values are a
   pure function of the run — tests assert exact counts. *)

type counter = { mutable c_value : int }

type histogram = {
  h_bounds : int array; (* inclusive upper bounds, strictly increasing *)
  h_counts : int array; (* length = Array.length h_bounds + 1 (overflow) *)
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
}

let counter () = { c_value = 0 }
let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let value c = c.c_value

let default_bounds = [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 |]

let histogram ?(bounds = default_bounds) () =
  {
    h_bounds = bounds;
    h_counts = Array.make (Array.length bounds + 1) 0;
    h_count = 0;
    h_sum = 0;
    h_max = 0;
  }

(* Top level, not a closure over [h] and [v]: [observe] runs once per
   scheduling decision and allocates nothing. *)
let rec bucket bounds v i =
  if i >= Array.length bounds then i
  else if v <= bounds.(i) then i
  else bucket bounds v (i + 1)

let observe h v =
  let b = bucket h.h_bounds v 0 in
  h.h_counts.(b) <- h.h_counts.(b) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v > h.h_max then h.h_max <- v

let merge ~into h =
  if into.h_bounds <> h.h_bounds then invalid_arg "Metric.merge: bounds";
  let c = into.h_counts in
  Array.iteri (fun i n -> c.(i) <- c.(i) + n) h.h_counts;
  into.h_count <- into.h_count + h.h_count;
  into.h_sum <- into.h_sum + h.h_sum;
  if h.h_max > into.h_max then into.h_max <- h.h_max

let bounds h = h.h_bounds

(* Flattened, deterministically-ordered view for snapshots/manifests. *)
let cells h =
  let buckets =
    Array.to_list
      (Array.mapi
         (fun i n ->
           if i < Array.length h.h_bounds then
             (Printf.sprintf "le_%d" h.h_bounds.(i), n)
           else ("overflow", n))
         h.h_counts)
  in
  buckets @ [ ("count", h.h_count); ("sum", h.h_sum); ("max", h.h_max) ]

let reset_counter c = c.c_value <- 0

let reset_histogram h =
  Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
  h.h_count <- 0;
  h.h_sum <- 0;
  h.h_max <- 0
