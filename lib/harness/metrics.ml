let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let word_mb words =
  float_of_int words *. float_of_int (Sys.word_size / 8) /. (1024.0 *. 1024.0)

let final_live_mb () =
  Gc.full_major ();
  let s = Gc.stat () in
  word_mb s.Gc.live_words

(* Kept as the end-of-run value; Figure 6b reports peak and final both. *)
let live_mb = final_live_mb

(* Peak live heap across [f], sampled by a [Gc.alarm] at the end of every
   major collection (plus one sample at entry and one at exit). [Gc.stat]
   walks the heap, so the reentrancy flag keeps a sample from observing
   itself; the alarm is always removed, even when [f] raises. *)
let with_live_mb f =
  let peak = ref 0 in
  let inside = ref false in
  let sample () =
    if not !inside then begin
      inside := true;
      Fun.protect
        ~finally:(fun () -> inside := false)
        (fun () ->
          let s = Gc.stat () in
          if s.Gc.live_words > !peak then peak := s.Gc.live_words)
    end
  in
  sample ();
  let alarm = Gc.create_alarm sample in
  let r =
    Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm) (fun () -> f ())
  in
  sample ();
  (r, word_mb !peak)

let avg_time_to_race ~t ~found ~missed =
  if found <= 0 then None
  else Some (t *. ((float_of_int missed /. 2.0) +. 1.0))

let avg_time_to_race_binomial ~t ~found ~missed =
  if found <= 0 then None
  else begin
    (* sum_i C(E,i) * S * T * (i+1) / sum_i C(E,i) * S, with the weights
       kept normalized to avoid overflow: w_i = C(E,i) / 2^E. *)
    let e = missed in
    let num = ref 0.0 and den = ref 0.0 in
    let w = ref (exp (-.float_of_int e *. log 2.0)) in
    for i = 0 to e do
      num := !num +. (!w *. float_of_int (i + 1));
      den := !den +. !w;
      if i < e then w := !w *. float_of_int (e - i) /. float_of_int (i + 1)
    done;
    Some (t *. !num /. !den)
  end
