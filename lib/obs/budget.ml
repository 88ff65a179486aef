(* Wall-clock / live-heap budget enforcement from a Gc.alarm. See the
   .mli for the (deliberate) best-effort semantics. *)

exception Exceeded of [ `Wall | `Heap ] * float

let word_mb words =
  float_of_int words *. float_of_int (Sys.word_size / 8) /. (1024.0 *. 1024.0)

let with_guard ?wall_s ?heap_mb f =
  match (wall_s, heap_mb) with
  | None, None -> f ()
  | _ ->
      let t0 = Unix.gettimeofday () in
      (* [armed] gates the alarm so the exception can only surface while
         [f] runs: the finally flips it (no allocation) before deleting
         the alarm. [Gc.stat] walks the heap; the reentrancy flag keeps a
         check from observing itself. *)
      let armed = ref true in
      let inside = ref false in
      let check () =
        if !armed && not !inside then begin
          inside := true;
          Fun.protect
            ~finally:(fun () -> inside := false)
            (fun () ->
              (match wall_s with
              | Some budget ->
                  let dt = Unix.gettimeofday () -. t0 in
                  (* [>=]: a zero budget is spent at the entry check even
                     when the clock has not moved since [t0]. *)
                  if dt >= budget then begin
                    armed := false;
                    raise (Exceeded (`Wall, dt))
                  end
              | None -> ());
              match heap_mb with
              | Some budget ->
                  let live = word_mb (Gc.stat ()).Gc.live_words in
                  if live > budget then begin
                    armed := false;
                    raise (Exceeded (`Heap, live))
                  end
              | None -> ())
        end
      in
      let alarm = Gc.create_alarm check in
      Fun.protect
        ~finally:(fun () ->
          armed := false;
          Gc.delete_alarm alarm)
        (fun () ->
          check ();
          f ())
