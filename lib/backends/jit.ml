open Sf_util
open Snowflake

type backend = Interp | Compiled | Openmp | Opencl | Custom of string

exception
  Certification_failed of {
    backend : string;
    group : string;
    diagnostics : Sf_analysis.Diagnostics.t list;
  }

let () =
  Printexc.register_printer (function
    | Certification_failed { backend; group; diagnostics } ->
        Some
          (Printf.sprintf
             "Jit.Certification_failed: %s plan for group %s:\n%s" backend
             group
             (Sf_analysis.Diagnostics.render diagnostics))
    | _ -> None)

let backend_name = function
  | Interp -> "interp"
  | Compiled -> "compiled"
  | Openmp -> "openmp"
  | Opencl -> "opencl"
  | Custom name -> name

let builtin_names = [ "interp"; "compiled"; "openmp"; "opencl" ]

let registry :
    (string, Config.t -> shape:Ivec.t -> Group.t -> Kernel.t) Hashtbl.t =
  Hashtbl.create 8

(* Kernels may be compiled from worker domains (e.g. a task JIT-compiling a
   sub-kernel), so the registry, the compile cache and its counters must be
   race-free: one mutex around the tables, atomics for the counters. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let backend_of_string = function
  | "interp" -> Some Interp
  | "compiled" -> Some Compiled
  | "openmp" -> Some Openmp
  | "opencl" -> Some Opencl
  | name ->
      if locked (fun () -> Hashtbl.mem registry name) then Some (Custom name)
      else None

let all_backends = [ Interp; Compiled; Openmp; Opencl ]

let registered_backends () =
  locked (fun () ->
      Hashtbl.fold (fun name _ acc -> name :: acc) registry [])
  |> List.sort String.compare

(* A cache entry is identified by the group itself, not by its hash:
   [Group.hash] hashes float coefficients to 30 bits, so two different
   programs can share a hash, and a key holding only the hash would hand
   one program the other's kernel.  The hash only picks the bucket; a hit
   needs the groups physically or structurally equal. *)
type key = {
  backend : backend;
  shape : int list;
  group : Group.t;
  config : Config.t;
}

module Key = struct
  type t = key

  let hash k =
    Hashc.combine (Group.hash k.group)
      (Hashtbl.hash (backend_name k.backend, k.shape, k.config))

  let equal a b =
    a.backend = b.backend && a.shape = b.shape && a.config = b.config
    && (a.group == b.group || Group.equal a.group b.group)
end

module Cache = Hashtbl.Make (Key)

(* The key [compile] ([reps = 1]) or [compile_time_tiled] uses: time-tiled
   entries live under a pseudo-backend, with [Config.time_tile] carrying
   [reps]. *)
let key_of ~config ~reps backend ~shape group =
  let backend, config =
    if reps > 1 then
      ( Custom ("timetile:" ^ backend_name backend),
        { config with Config.time_tile = reps } )
    else (backend, config)
  in
  { backend; shape = Ivec.to_list shape; group; config }

let cache : Kernel.t Cache.t = Cache.create 64
let hits = Atomic.make 0
let misses = Atomic.make 0

module Trace = Sf_trace.Trace
module Fault = Sf_resilience.Fault

(* The "kernel" fault site lives in the instrument wrapper, so every
   backend inherits it.  Raise/Transient abort the invocation before any
   wave runs; poison kinds corrupt the first output grid's center point
   *after* a successful run (poisoning before would be overwritten by the
   kernel itself) — exactly the silent-data-corruption shape the guard
   scans and checkpoint rollback exist to catch. *)
let apply_poison outputs grids v =
  match outputs with
  | [] -> ()
  | name :: _ -> (
      match Sf_mesh.Grids.find_opt grids name with
      | Some m ->
          let n = Sf_mesh.Mesh.size m in
          if n > 0 then Sf_mesh.Mesh.set_flat m (n / 2) v
      | None -> ())

(* Every compiled kernel is wrapped in a trace guard at compile time, so
   each invocation — from user code, [Mg], [Spmd] or the bench harness —
   becomes a [kernel] span attributed to its group and backend and
   annotated with the analytic cells/flops/bytes of one run.  The span
   arguments are computed once per cache entry; when tracing is off the
   wrapper costs one atomic load and a branch. *)
let instrument ?cost ~config ~backend ~shape group (kernel : Kernel.t) =
  let cost =
    match cost with
    | Some c -> c
    | None -> (
        (* with fusion on, the parallel backends execute the fused plan, so
           the span is annotated with the single-pass bytes model — shared
           reads inside a cluster are no longer double-counted *)
        match backend with
        | (Openmp | Opencl) when config.Config.fusion ->
            Costing.of_clusters ~shape
              (List.map
                 (fun (c : Fusion.cluster) -> c.Fusion.members)
                 (Fusion.partition config ~shape group))
        | _ -> Costing.of_group ~shape group)
  in
  let span_args =
    [
      ("backend", Trace.Str (backend_name backend));
      ("group", Trace.Str group.Group.label);
      ("stencils", Trace.Int (Group.length group));
    ]
    @ Costing.args cost
  in
  let fault_detail = backend_name backend ^ ":" ^ group.Group.label in
  let outputs =
    List.map (fun s -> s.Stencil.output) (Group.stencils group)
    |> List.sort_uniq String.compare
  in
  let run ?params grids =
    let poison =
      if Fault.armed () then Fault.fire ~site:"kernel" ~detail:fault_detail
      else None
    in
    (if Trace.on () then begin
       Trace.add Trace.Cells_updated cost.Costing.cells;
       Trace.span ~args:span_args Trace.Kernel group.Group.label (fun () ->
           kernel.Kernel.run ?params grids)
     end
     else kernel.Kernel.run ?params grids);
    match poison with
    | Some Fault.Nan_poison -> apply_poison outputs grids Float.nan
    | Some Fault.Inf_poison -> apply_poison outputs grids Float.infinity
    | _ -> ()
  in
  { kernel with Kernel.run }

(* Certification (SF_VALIDATE=1 / Config.certify): prove the plan the
   backend is about to adopt race-free, once per cache entry — cache hits
   pay nothing.  A failed compile caches nothing, so a racy plan raises on
   every attempt. *)
let certify config ~backend (group : Group.t) diagnose =
  if config.Config.certify then begin
    let diagnostics =
      Trace.span Trace.Certify ("certify:" ^ group.Group.label) diagnose
    in
    if Sf_analysis.Diagnostics.has_errors diagnostics then
      raise
        (Certification_failed
           { backend; group = group.Group.label; diagnostics })
  end

(* Lookup, build on a miss, publish: one path for [compile] and
   [compile_time_tiled].  The build runs outside the lock — lowering can
   be slow and must not stall concurrent lookups of unrelated kernels —
   so two racing misses both build and the first to publish wins. *)
let cached key ~args (group : Group.t) build =
  match locked (fun () -> Cache.find_opt cache key) with
  | Some kernel ->
      Atomic.incr hits;
      Trace.add Trace.Cache_hits 1;
      kernel
  | None ->
      Atomic.incr misses;
      Trace.add Trace.Cache_misses 1;
      let kernel =
        Trace.span ~args Trace.Compile ("compile:" ^ group.Group.label) build
      in
      locked (fun () ->
          match Cache.find_opt cache key with
          | Some existing -> existing
          | None ->
              Cache.replace cache key kernel;
              kernel)

let compile ?(config = Config.default) backend ~shape group =
  cached
    (key_of ~config ~reps:1 backend ~shape group)
    ~args:
      [
        ("backend", Trace.Str (backend_name backend));
        ("group", Trace.Str group.Group.label);
      ]
    group
    (fun () ->
      let group = Passes.optimize config ~shape group in
      certify config ~backend:(backend_name backend) group (fun () ->
          match backend with
          | Openmp -> Schedule_check.certify config ~shape ~backend:`Openmp group
          | Opencl -> Schedule_check.certify config ~shape ~backend:`Opencl group
          | Interp | Compiled | Custom _ -> []);
      let kernel =
        match backend with
        | Interp -> Serial_backend.compile_interp config ~shape group
        | Compiled -> Serial_backend.compile_compiled config ~shape group
        | Openmp -> Openmp_backend.compile config ~shape group
        | Opencl -> Opencl_backend.compile config ~shape group
        | Custom name -> (
            match locked (fun () -> Hashtbl.find_opt registry name) with
            | Some compiler -> compiler config ~shape group
            | None ->
                invalid_arg
                  (Printf.sprintf "Jit.compile: unknown custom backend %S" name))
      in
      instrument ~config ~backend ~shape group kernel)

(* --------------------------------------------------- temporal blocking

   [compile] is always ONE application of the group; [compile_time_tiled]
   returns a kernel whose single invocation performs [reps] applications —
   skew-blocked into ~one pass of memory traffic when [Timetile.plan]
   accepts the group, or a plain kernel wrapped in a reps-loop otherwise,
   so the semantics are uniform either way (the differential fuzzer
   depends on that). *)

let compile_time_tiled ?(config = Config.default) ~reps backend ~shape group =
  if reps < 1 then
    invalid_arg "Jit.compile_time_tiled: reps must be at least 1";
  if reps = 1 then compile ~config backend ~shape group
  else begin
    let key = key_of ~config ~reps backend ~shape group in
    let config = key.config in
    cached key
      ~args:
        [
          ("backend", Trace.Str "timetile");
          ("group", Trace.Str group.Group.label);
          ("reps", Trace.Int reps);
        ]
      group
      (fun () ->
        let group = Passes.optimize config ~shape group in
        match Timetile.plan config ~shape ~reps group with
        | Some plan ->
            certify config ~backend:"timetile" group (fun () ->
                Schedule_check.certify_timetile_plan config ~shape plan);
            instrument
              ~cost:(Costing.of_timetile ~shape ~reps group)
              ~config ~backend:(Custom "timetile") ~shape group
              (Timetile.compile config ~shape plan)
        | None ->
            (* the plain fallback's inner kernel is instrumented by
               [compile] itself: one span per application *)
            let inner = compile ~config backend ~shape group in
            let run ?params grids =
              for _ = 1 to reps do
                inner.Kernel.run ?params grids
              done
            in
            {
              inner with
              Kernel.run;
              Kernel.description =
                Printf.sprintf "%d rep(s) of [%s]" reps
                  inner.Kernel.description;
            })
  end

let compile_stencil ?config backend ~shape stencil =
  compile ?config backend ~shape
    (Group.make ~label:stencil.Stencil.label [ stencil ])

let register_backend ~name compiler =
  if List.mem name builtin_names then
    invalid_arg
      (Printf.sprintf "Jit.register_backend: %S is a built-in backend" name);
  locked (fun () ->
      if Hashtbl.mem registry name then Cache.reset cache;
      Hashtbl.replace registry name compiler)

(* The hash of the key [compile] / [compile_time_tiled] would use,
   exported so a serving layer can coalesce concurrent compiles of the same
   kernel *before* they race in [compile].  Equal tokens may, rarely, come
   from different keys; that only makes a compile wait for an unrelated
   one, since [compile] itself compares whole keys. *)
let cache_key_hex ?(config = Config.default) ?(reps = 1) backend ~shape group
    =
  Printf.sprintf "%x" (Key.hash (key_of ~config ~reps backend ~shape group))

let cache_stats () = (Atomic.get hits, Atomic.get misses)

let clear_cache () =
  locked (fun () -> Cache.reset cache);
  Atomic.set hits 0;
  Atomic.set misses 0
