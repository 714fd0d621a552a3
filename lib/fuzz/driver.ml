open Sf_util

type options = {
  seed : int;
  count : int;
  max_dims : int;
  ulps : int;
  atol : float;
  only : string list option;
  shrink : bool;
  max_shrink_evals : int;
  corpus_dir : string option;
  oracles : bool;
  inject : Diff.bug option;
  log : string -> unit;
}

let default_options =
  {
    seed = 42;
    count = 100;
    max_dims = 3;
    ulps = 512;
    atol = 1e-11;
    only = None;
    shrink = true;
    max_shrink_evals = 400;
    corpus_dir = None;
    oracles = true;
    inject = None;
    log = ignore;
  }

type failure = {
  original : Gen.spec;
  minimised : Gen.spec;
  detail : string;
  corpus_file : string option;
}

type report = {
  tested : int;
  failures : failure list;
  native : Diff.native_check option;
}

let targets opts ~dims =
  let base = Diff.targets_for ~only:opts.only ~dims in
  match opts.inject with
  | None -> base
  | Some bug -> base @ [ Diff.injected_target bug ]

(* The injected backend is re-registered on every [targets] call (shrink
   re-checks included), which clears the JIT cache as a side effect —
   harmless, and it keeps the cache from accumulating one entry per
   generated program over a long campaign. *)

let check_spec opts spec =
  let dims = Ivec.dims spec.Gen.shape in
  Diff.check ~ulps:opts.ulps ~atol:opts.atol ~targets:(targets opts ~dims) spec

let handle_divergence opts spec d =
  let detail = Diff.divergence_to_string d in
  opts.log (Printf.sprintf "DIVERGENCE %s\n%s" detail (Gen.describe spec));
  let minimised =
    if not opts.shrink then spec
    else
      Shrink.shrink ~max_evals:opts.max_shrink_evals
        ~fails:(fun c -> Result.is_error (check_spec opts c))
        spec
  in
  if opts.shrink then
    opts.log
      (Printf.sprintf "shrunk %d -> %d stencils:\n%s"
         (Snowflake.Group.length spec.Gen.group)
         (Snowflake.Group.length minimised.Gen.group)
         (Gen.describe minimised));
  let corpus_file =
    Option.map
      (fun dir ->
        let path = Corpus.save ~dir ~note:detail minimised in
        opts.log (Printf.sprintf "counterexample written to %s" path);
        path)
      opts.corpus_dir
  in
  { original = spec; minimised; detail; corpus_file }

(* The native column joins full campaigns (no backend filter) only. *)
let native opts labelled =
  match opts.only with
  | Some _ -> None
  | None -> Some (Diff.check_native ~ulps:opts.ulps ~atol:opts.atol labelled)

let run opts =
  Sf_backends.Jit.clear_cache ();
  let failures = ref [] and specs = ref [] in
  for i = 0 to opts.count - 1 do
    let seed = opts.seed + i in
    let spec = Gen.spec ~max_dims:opts.max_dims ~seed () in
    specs := (Printf.sprintf "seed %d" seed, spec) :: !specs;
    (match check_spec opts spec with
    | Ok () -> ()
    | Error d -> failures := handle_divergence opts spec d :: !failures);
    if opts.oracles then
      List.iter
        (fun detail ->
          opts.log
            (Printf.sprintf "ORACLE FAILURE (seed %d) %s\n%s" seed detail
               (Gen.describe spec));
          failures :=
            { original = spec; minimised = spec; detail; corpus_file = None }
            :: !failures)
        (Oracle.all spec);
    if (i + 1) mod 25 = 0 then
      opts.log
        (Printf.sprintf "%d/%d programs, %d failure(s)" (i + 1) opts.count
           (List.length !failures))
  done;
  { tested = opts.count; failures = List.rev !failures; native = native opts (List.rev !specs) }

let replay_paths ?(ulps = default_options.ulps) ?(atol = default_options.atol)
    ?only ?(log = ignore) paths =
  let failed =
    List.filter_map
      (fun path ->
        match Corpus.replay ~ulps ~atol ?only path with
        | Ok () ->
            log (Printf.sprintf "replayed %s: ok" path);
            None
        | Error e ->
            log (Printf.sprintf "replay FAILED: %s" e);
            Some (path, e))
      paths
  in
  let native =
    native { default_options with ulps; atol; only }
      (List.filter_map
         (fun path -> Result.to_option (Result.map (fun s -> (path, s)) (Corpus.load path)))
         paths)
  in
  (failed, native)

let native_failures = function
  | None -> []
  | Some n -> n.Diff.native_failures

let report_exit_code r =
  if r.failures = [] && native_failures r.native = [] then 0 else 1
