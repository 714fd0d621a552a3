(* The figure commands: regenerate every evaluation artefact of the paper
   (Figures 6-9) plus the ablations documented in DESIGN.md.  Repeated,
   machine-stamped measurement with a spread is perfbench/'s job.

   Usage:
     main.exe [command] [--size N] [--sizes 8,16,32] [--cycles N]
              [--workers N] [--repeats N] [--csv DIR] [--trace FILE]
   command: all (default) | stream | fig7 | fig8 | fig9 | tiling
            | multicolor | waves | fusion | autotune | distributed
            | verify | codegen *)

open Sf_harness

let trace_file = ref None

let parse_args () =
  let opts = ref Experiments.default_opts in
  let cmd = ref "all" in
  let rec go = function
    | [] -> ()
    | "--trace" :: path :: rest ->
        trace_file := Some path;
        Sf_trace.Trace.set_enabled true;
        go rest
    | "--size" :: v :: rest ->
        opts := { !opts with Experiments.size = int_of_string v };
        go rest
    | "--sizes" :: v :: rest ->
        let sizes = List.map int_of_string (String.split_on_char ',' v) in
        opts := { !opts with Experiments.sizes };
        go rest
    | "--cycles" :: v :: rest ->
        opts := { !opts with Experiments.cycles = int_of_string v };
        go rest
    | "--workers" :: v :: rest ->
        opts := { !opts with Experiments.workers = int_of_string v };
        go rest
    | "--repeats" :: v :: rest ->
        opts := { !opts with Experiments.repeats = int_of_string v };
        go rest
    | "--csv" :: dir :: rest ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        Experiments.csv_dir := Some dir;
        go rest
    | c :: rest when c <> "" && c.[0] <> '-' ->
        cmd := c;
        go rest
    | junk :: _ -> failwith ("unknown argument: " ^ junk)
  in
  go (List.tl (Array.to_list Sys.argv));
  (!cmd, !opts)

let () =
  let cmd, opts = parse_args () in
  (match cmd with
  | "all" -> Experiments.run_all opts
  | "stream" -> Experiments.run_stream opts
  | "fig7" -> Experiments.run_fig7 opts
  | "fig8" -> Experiments.run_fig8 opts
  | "fig9" -> Experiments.run_fig9 opts
  | "tiling" -> Experiments.run_tiling opts
  | "multicolor" -> Experiments.run_multicolor opts
  | "waves" -> Experiments.run_waves opts
  | "fusion" -> Experiments.run_fusion opts
  | "autotune" -> Experiments.run_autotune opts
  | "distributed" -> Experiments.run_distributed opts
  | "verify" -> Experiments.run_verify opts
  | "codegen" -> Experiments.run_codegen opts
  | other ->
      Printf.eprintf "unknown command %S\n" other;
      exit 2);
  (match !trace_file with
  | Some path ->
      Sf_trace.Trace.write_chrome_json path;
      Printf.printf "wrote Chrome trace (%d events) to %s\n"
        (List.length (Sf_trace.Trace.events ()))
        path
  | None -> ());
  print_newline ()
