(* One workload per process:

     main.exe --workload solve|sweeps|serve --seed N --seconds S
              --trace 0|1 [--smoke] [--sfserved PATH]

   Prints human-readable "# " lines, then as its last line one JSON
   object {correct, attempted, failed, metrics}.  With --trace 0 the
   metrics are the end-to-end ones, timed with tracing off; with
   --trace 1 they are the per-layer ones.  Exits 1 when a correctness
   check failed.  Usually started through run.py, which builds first. *)

open Common

let usage () =
  prerr_endline
    "usage: main.exe --workload solve|sweeps|serve --seed N --seconds S \
     --trace 0|1 [--smoke] [--sfserved PATH]";
  exit 2

let parse argv =
  let workload = ref "" and seed = ref None and seconds = ref 10.
  and trace = ref false and smoke = ref false
  and sfserved = ref "_build/default/bin/sfserved.exe" in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> seconds := s
        | _ -> usage ());
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; go rest
    | "--smoke" :: rest -> smoke := true; go rest
    | "--sfserved" :: v :: rest -> sfserved := v; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match !seed with
  | None -> usage ()
  | Some seed ->
      ( !workload,
        { seed; seconds = !seconds; trace = !trace; smoke = !smoke;
          sfserved = !sfserved } )

let () =
  let workload, o = parse Sys.argv in
  let run =
    match workload with
    | "solve" -> Solve_wl.run
    | "sweeps" -> Sweeps_wl.run
    | "serve" -> Serve_wl.run
    | _ -> usage ()
  in
  info "workload %s, seed %d, %.0f s, trace %b%s" workload o.seed o.seconds
    o.trace (if o.smoke then ", smoke" else "");
  let r = run o in
  stamp ~working_set_mb:r.working_set_mb;
  let r =
    if o.trace then
      let given =
        m "machine.llc_mb" "MB" (Lazy.force llc_mb)
        :: m "roofline.working_set_mb" "MB" r.working_set_mb
        :: r.metrics
      in
      { r with metrics = attributed given @ Probes.run o }
    else r
  in
  if not (print_result r) then exit 1
