(* The percentile rule of the end-to-end benchmark.

   A timing is reported as its median and its 99th percentile, and a
   percentile is only reported when at least ten samples lie beyond it:
   the p99 of fewer than 1000 samples is the maximum of a handful of
   outliers, not a tail. Quantiles use the nearest-rank definition over
   the raw samples (no interpolation, no histogram buckets), so a
   reported value is always one that was measured. *)

exception Too_few of { q : float; samples : int; needed : int }

let () =
  Printexc.register_printer (function
    | Too_few { q; samples; needed } ->
      Some
        (Printf.sprintf "p%g needs at least %d samples (ten beyond it), got %d" (q *. 100.)
           needed samples)
    | _ -> None)

(* Float.round: 10 /. (1. -. 0.99) is 999.99... in binary floating point. *)
let min_samples q = int_of_float (Float.round (10. /. (1. -. q)))

(* The nearest-rank q-quantile, whatever the sample count. *)
let nearest_rank q samples =
  if q < 0. || q >= 1. then invalid_arg "Pct.nearest_rank: q must lie in [0, 1)";
  let n = Array.length samples in
  if n = 0 then invalid_arg "Pct.nearest_rank: no samples";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  sorted.(max 0 (rank - 1))

let quantile q samples =
  let n = Array.length samples and needed = min_samples q in
  if n < needed then raise (Too_few { q; samples = n; needed });
  nearest_rank q samples
