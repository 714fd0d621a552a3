(* Monotonic timing and the tail rule every metric is built from.  All
   timings use bechamel's monotonic clock; wall-clock
   ([Unix.gettimeofday]) can step and is not used for measurement.
   Medians and percentiles come from [Sf_util.Stats]. *)

module Stats = Sf_util.Stats

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

let iqr_frac xs =
  (Stats.percentile 75. xs -. Stats.percentile 25. xs) /. Stats.median xs

(* Reported percentiles, in tenths of a percent. *)
let ladder = [ 500; 900; 990; 999 ]

(* Samples ranked strictly above the [p]-tenths percentile of [n]. *)
let beyond ~n p = n * (1000 - p) / 1000

let percentile_label p =
  if p mod 10 = 0 then Printf.sprintf "p%d" (p / 10)
  else Printf.sprintf "p%d.%d" (p / 10) (p mod 10)

let tail xs =
  let n = Array.length xs in
  match List.rev (List.filter (fun p -> beyond ~n p >= 10) ladder) with
  | [] -> None
  | p :: _ -> Some (percentile_label p, Stats.percentile (float_of_int p /. 10.) xs)
