(* sffuzz: differential fuzzing and metamorphic testing for the stencil
   backends.

   Generates seeded random well-formed stencil programs, runs each on the
   interpreter (semantic oracle) and on every registered backend
   configuration, and reports any divergence beyond ULP tolerance.  On a
   failure the program is greedily shrunk and (with --corpus-dir) written
   out as a replayable .sfl counterexample.  Metamorphic oracles check
   pool determinism, plan-certification cleanliness and SF011/NaN
   agreement alongside the differential loop.  --replay-dir re-runs a
   saved corpus instead of generating.  Exit status: 0 clean, 1 when any
   divergence/oracle/replay failure, 2 on usage errors.

   --proto switches target: instead of differentiating backends, fuzz
   the sfserved wire protocol (Sf_proto_fuzz) — mutated frames against
   the pure decoders and a live in-process server, plus stateful
   multi-tenant sessions.  Same exit contract; failures shrink to
   replayable .pfz cases (--corpus-dir / --replay-dir). *)

open Cmdliner

let comma_list s =
  List.filter (fun x -> x <> "") (String.split_on_char ',' (String.trim s))

let log quiet msg = if not quiet then Printf.printf "sffuzz: %s\n%!" msg

(* A wedged server connection would otherwise hang the whole campaign;
   the watchdog turns that into a loud bounded failure (the same idiom
   the @serve tests use). *)
let arm_watchdog seconds =
  ignore
    (Thread.create
       (fun () ->
         Thread.delay (float_of_int seconds);
         prerr_endline "sffuzz: --proto watchdog expired (campaign wedged)";
         exit 1)
       ())

let run_proto ~seed ~count ~sessions ~steps ~corpus_dir ~replay_dir ~watchdog
    ~log =
  arm_watchdog watchdog;
  match replay_dir with
  | Some dir ->
      let files = Sf_proto_fuzz.Proto_fuzz.files dir in
      if files = [] then begin
        log (Printf.sprintf "no .pfz corpus files under %s" dir);
        exit 0
      end;
      let failed = Sf_proto_fuzz.Proto_fuzz.replay_paths ~log files in
      List.iter
        (fun (path, e) -> Printf.printf "FAILURE (%s): %s\n%!" path e)
        failed;
      log
        (Printf.sprintf "replayed %d protocol corpus file(s), %d failure(s)"
           (List.length files) (List.length failed));
      exit (if failed = [] then 0 else 1)
  | None ->
      let opts =
        { Sf_proto_fuzz.Proto_fuzz.seed; count; sessions; steps; corpus_dir;
          log }
      in
      let report = Sf_proto_fuzz.Proto_fuzz.run opts in
      List.iter
        (fun (f : Sf_proto_fuzz.Proto_fuzz.failure) ->
          Printf.printf "FAILURE (%s): %s%s\n%!" f.what f.detail
            (match f.corpus_file with
            | Some p -> Printf.sprintf " [saved %s]" p
            | None -> ""))
        report.Sf_proto_fuzz.Proto_fuzz.failures;
      exit (Sf_proto_fuzz.Proto_fuzz.report_exit_code report)

(* The native column's line prints even with -q: a host without gcc
   must say that the column was skipped, not pass silently. *)
let print_native = function
  | None -> ()
  | Some (n : Sf_fuzz.Diff.native_check) ->
      Printf.printf "sffuzz: %s\n%!" n.Sf_fuzz.Diff.summary;
      List.iter
        (fun (label, detail) -> Printf.printf "FAILURE (%s): %s\n%!" label detail)
        n.Sf_fuzz.Diff.native_failures

let run seed count max_dims backend ulps atol shrink max_shrink_evals
    corpus_dir oracles inject replay_dir proto sessions steps watchdog quiet =
  if proto then
    run_proto ~seed ~count ~sessions ~steps ~corpus_dir ~replay_dir ~watchdog
      ~log:(log quiet);
  let only =
    match backend with
    | "all" -> None
    | s -> (
        let names = comma_list s in
        let known = [ "compiled"; "openmp"; "opencl" ] in
        match List.filter (fun n -> not (List.mem n known)) names with
        | [] -> Some names
        | bad ->
            Printf.eprintf
              "sffuzz: unknown backend %s (compiled|openmp|opencl|all, \
               comma-separable)\n"
              (String.concat "," bad);
            exit 2)
  in
  let log = log quiet in
  (* undersize-channel is not a miscompiled backend but a runtime-state
     fault against the pipelined-SPMD executor: shrink a certified ring
     behind the certificate's back and require the SF034 depth gate to
     refuse the run.  Self-contained, so it short-circuits the campaign. *)
  (match inject with
  | Some "undersize-channel" -> (
      match Sf_fuzz.Oracle.pipeline_undersize_detected () with
      | Ok () ->
          log "undersize-channel fault refused by the SF034 depth gate";
          exit 0
      | Error msg ->
          Printf.printf "FAILURE: %s\n%!" msg;
          exit 1)
  | _ -> ());
  let inject =
    match inject with
    | None -> None
    | Some "drop-last-stencil" -> Some Sf_fuzz.Diff.Drop_last_stencil
    | Some "perturb-first-cell" -> Some Sf_fuzz.Diff.Perturb_first_cell
    | Some "kernel-raise" -> Some Sf_fuzz.Diff.Kernel_raise
    | Some "nan-poison" -> Some Sf_fuzz.Diff.Nan_poison_cell
    | Some "mis-skew-tile" -> Some Sf_fuzz.Diff.Mis_skew_tile
    | Some other ->
        Printf.eprintf
          "sffuzz: unknown bug %S \
           (drop-last-stencil|perturb-first-cell|kernel-raise|nan-poison|\
           mis-skew-tile|undersize-channel)\n"
          other;
        exit 2
  in
  match replay_dir with
  | Some dir ->
      let files = Sf_fuzz.Corpus.files dir in
      if files = [] then begin
        log (Printf.sprintf "no corpus files under %s" dir);
        exit 0
      end;
      let failed, native = Sf_fuzz.Driver.replay_paths ~ulps ~atol ?only ~log files in
      let failed = failed @ Sf_fuzz.Driver.native_failures native in
      print_native native;
      log
        (Printf.sprintf "replayed %d corpus file(s), %d failure(s)"
           (List.length files) (List.length failed));
      exit (if failed = [] then 0 else 1)
  | None ->
      let opts =
        {
          Sf_fuzz.Driver.seed;
          count;
          max_dims;
          ulps;
          atol;
          only;
          shrink;
          max_shrink_evals;
          corpus_dir;
          oracles;
          inject;
          log;
        }
      in
      let report = Sf_fuzz.Driver.run opts in
      (* the pipelined-SPMD differential target is rank-structured, which
         generated specs are not — one certified 2-rank run per campaign *)
      let pipeline_failure =
        if not oracles then None
        else
          match Sf_fuzz.Oracle.pipeline_agreement () with
          | Ok () ->
              log "pipeline vs bulk-sync differential target: bitwise clean";
              None
          | Error msg -> Some msg
      in
      let native_failed = Sf_fuzz.Driver.native_failures report.Sf_fuzz.Driver.native in
      print_native report.Sf_fuzz.Driver.native;
      let n_fail =
        List.length report.Sf_fuzz.Driver.failures
        + List.length native_failed
        + if pipeline_failure = None then 0 else 1
      in
      log
        (Printf.sprintf "%d program(s) tested, %d failure(s)"
           report.Sf_fuzz.Driver.tested n_fail);
      (match pipeline_failure with
      | Some msg -> Printf.printf "FAILURE (pipeline): %s\n%!" msg
      | None -> ());
      List.iter
        (fun (f : Sf_fuzz.Driver.failure) ->
          Printf.printf "FAILURE (seed %d): %s\n%!" f.Sf_fuzz.Driver.original.Sf_fuzz.Gen.seed
            f.Sf_fuzz.Driver.detail)
        report.Sf_fuzz.Driver.failures;
      exit
        (if pipeline_failure <> None then 1
         else Sf_fuzz.Driver.report_exit_code report)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Base seed; program $(i,i) uses seed + $(i,i).")

let count_arg =
  Arg.(value & opt int 100 & info [ "count" ] ~doc:"Number of programs to generate and check.")

let max_dims_arg =
  Arg.(value & opt int 3 & info [ "max-dims" ] ~doc:"Maximum dimensionality of generated programs (1-3).")

let backend_arg =
  Arg.(value & opt string "all" & info [ "backend" ] ~doc:"Backends to differentiate against interp: compiled | openmp | opencl | all (comma-separable).")

let ulps_arg =
  Arg.(value & opt int 512 & info [ "ulps" ] ~doc:"ULP tolerance for the differential comparison.")

let atol_arg =
  Arg.(value & opt float 1e-11 & info [ "atol" ] ~doc:"Absolute tolerance (values within it compare equal regardless of ULPs).")

let shrink_arg =
  Arg.(value & opt bool true & info [ "shrink" ] ~doc:"Greedily minimise failing programs (--shrink=false to disable).")

let shrink_evals_arg =
  Arg.(value & opt int 400 & info [ "max-shrink-evals" ] ~doc:"Budget of re-executions the shrinker may spend per failure.")

let corpus_arg =
  Arg.(value & opt (some string) None & info [ "corpus-dir" ] ~doc:"Write shrunk counterexamples as replayable .sfl files under $(docv)." ~docv:"DIR")

let oracles_arg =
  Arg.(value & opt bool true & info [ "oracles" ] ~doc:"Run the metamorphic oracles (pool determinism, certification gate, SF011/NaN).")

let inject_arg =
  Arg.(value & opt (some string) None & info [ "inject" ] ~doc:"Add a deliberately buggy backend (or runtime fault) the harness must catch: drop-last-stencil | perturb-first-cell | kernel-raise | nan-poison | mis-skew-tile | undersize-channel.")

let replay_arg =
  Arg.(value & opt (some string) None & info [ "replay-dir" ] ~doc:"Replay every .sfl corpus file under $(docv) instead of generating." ~docv:"DIR")

let proto_arg =
  Arg.(value & flag & info [ "proto" ] ~doc:"Fuzz the sfserved wire protocol instead of the backends: mutated frames against the decoders and a live server, plus stateful multi-tenant sessions.  --count is mutated frames; --corpus-dir/--replay-dir use .pfz cases.")

let sessions_arg =
  Arg.(value & opt int 8 & info [ "sessions" ] ~doc:"(--proto) Number of stateful multi-tenant fuzz sessions.")

let steps_arg =
  Arg.(value & opt int 16 & info [ "session-steps" ] ~doc:"(--proto) Randomized protocol steps per session.")

let watchdog_arg =
  Arg.(value & opt int 240 & info [ "watchdog" ] ~doc:"(--proto) Kill the campaign with exit 1 after $(docv) seconds (a wedged server must be a failure, not a hang)." ~docv:"SECONDS")

let quiet_arg = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress progress output.")

let cmd =
  Cmd.v
    (Cmd.info "sffuzz"
       ~doc:"Differential fuzzer and metamorphic test harness for the stencil backends")
    Term.(
      const run $ seed_arg $ count_arg $ max_dims_arg $ backend_arg $ ulps_arg
      $ atol_arg $ shrink_arg $ shrink_evals_arg $ corpus_arg $ oracles_arg
      $ inject_arg $ replay_arg $ proto_arg $ sessions_arg $ steps_arg
      $ watchdog_arg $ quiet_arg)

let () = exit (Cmd.eval cmd)
