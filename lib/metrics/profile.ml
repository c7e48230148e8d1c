(* CLOCK_MONOTONIC (ns), so timings survive wall-clock adjustment. *)
let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6
