open Sf_util
open Sf_mesh
open Snowflake
open Sf_backends

type target = {
  backend : Jit.backend;
  config : Config.t;
  tname : string;
  apps : int;
}

let default_targets ~dims =
  let w n c = Config.with_workers n c in
  let tile = Some (List.init dims (fun _ -> 3)) in
  let t backend config tname = { backend; config; tname; apps = 1 } in
  [
    t Jit.Compiled Config.default "compiled";
    t Jit.Openmp (w 1 Config.default) "openmp/w1";
    t Jit.Openmp (w 4 Config.default) "openmp/w4";
    t Jit.Openmp { (w 2 Config.default) with Config.tile } "openmp/w2/tile";
    t Jit.Openmp
      { (w 4 Config.default) with Config.multicolor = true }
      "openmp/w4/multicolor";
    t Jit.Opencl (w 2 Config.default) "opencl/w2";
    t Jit.Opencl
      { (w 2 Config.default) with Config.tall_skinny = (2, 3) }
      "opencl/w2/ts";
    (* fused plans join the matrix: same one-application semantics, the
       backend is free to fuse cofusible stencils into single sweeps *)
    t Jit.Openmp
      { (w 4 Config.default) with Config.fusion = true }
      "openmp/w4/fused";
    t Jit.Opencl
      { (w 2 Config.default) with Config.fusion = true }
      "opencl/w2/fused";
    (* temporal blocking: three applications as one (possibly skewed
       time-tiled) kernel, vs three interp applications as oracle *)
    {
      backend = Jit.Openmp;
      config = w 4 Config.default;
      tname = "openmp/w4/ttile3";
      apps = 3;
    };
  ]

let targets_for ~only ~dims =
  let all = default_targets ~dims in
  match only with
  | None -> all
  | Some names ->
      List.filter
        (fun t -> List.mem (Jit.backend_name t.backend) names)
        all

type divergence = {
  target : string;
  grid : string;
  point : int list;
  expected : float;
  got : float;
  crashed : string option;
}

let divergence_to_string d =
  match d.crashed with
  | Some err -> Printf.sprintf "%s crashed: %s" d.target err
  | None ->
      Printf.sprintf
        "%s diverges from interp on grid %s at (%s): %.17g vs %.17g (%d ulps)"
        d.target d.grid
        (String.concat ", " (List.map string_of_int d.point))
        d.expected d.got
        (Fcmp.ulp_diff d.expected d.got)

let run_target spec target =
  let grids = Gen.build_grids spec in
  let kernel =
    match target.backend with
    | _ when target.apps <= 1 ->
        Jit.compile ~config:target.config target.backend ~shape:spec.shape
          spec.group
    | Jit.Custom _ ->
        (* an injected multi-application backend builds its own
           [apps]-application kernel — don't wrap it again *)
        Jit.compile ~config:target.config target.backend ~shape:spec.shape
          spec.group
    | _ ->
        Jit.compile_time_tiled ~config:target.config ~reps:target.apps
          target.backend ~shape:spec.shape spec.group
  in
  kernel.Kernel.run ~params:spec.params grids;
  grids

let run_reference ?(apps = 1) spec =
  let grids = Gen.build_grids spec in
  let kernel = Jit.compile Jit.Interp ~shape:spec.shape spec.group in
  for _ = 1 to apps do
    kernel.Kernel.run ~params:spec.params grids
  done;
  grids

let compare_grids ~ulps ~atol ~target reference got =
  let rec go = function
    | [] -> Ok ()
    | name :: rest -> (
        let a = Grids.find reference name and b = Grids.find got name in
        match Mesh.first_mismatch ~ulps ~atol a b with
        | None -> go rest
        | Some (point, expected, got) ->
            Error
              {
                target;
                grid = name;
                point = Array.to_list point;
                expected;
                got;
                crashed = None;
              })
  in
  go (Grids.names reference)

let check ?(ulps = 512) ?(atol = 1e-11) ~targets spec =
  (* one oracle per application count: a time-tiled target doing k
     applications compares against k interp applications *)
  let references = Hashtbl.create 4 in
  let reference_for apps =
    match Hashtbl.find_opt references apps with
    | Some g -> g
    | None ->
        let g = run_reference ~apps spec in
        Hashtbl.add references apps g;
        g
  in
  let rec go = function
    | [] -> Ok ()
    | t :: rest -> (
        (* a crashing target is a finding too — an exception must not
           abort the campaign, it must become a divergence of its own *)
        match run_target spec t with
        | exception e ->
            Error
              {
                target = t.tname;
                grid = "";
                point = [];
                expected = Float.nan;
                got = Float.nan;
                crashed = Some (Printexc.to_string e);
              }
        | got -> (
            match
              compare_grids ~ulps ~atol ~target:t.tname
                (reference_for (max 1 t.apps))
                got
            with
            | Ok () -> go rest
            | Error d -> Error d))
  in
  go targets

(* ------------------------------------------------------ fault injection *)

type bug =
  | Drop_last_stencil
  | Perturb_first_cell
  | Kernel_raise
  | Nan_poison_cell
  | Mis_skew_tile

let buggy_name = "sffuzz-buggy"

let injected_target bug =
  Jit.register_backend ~name:buggy_name (fun config ~shape group ->
      match bug with
      | Drop_last_stencil ->
          let ss = Group.stencils group in
          let n = List.length ss in
          let group' =
            if n > 1 then
              Group.make ~label:group.Group.label
                (List.filteri (fun i _ -> i < n - 1) ss)
            else group
          in
          Serial_backend.compile_compiled config ~shape group'
      | Perturb_first_cell ->
          let k = Serial_backend.compile_compiled config ~shape group in
          let out = (List.hd (Group.stencils group)).Stencil.output in
          Kernel.make ~name:k.Kernel.name ~backend:buggy_name
            ~description:"compiled + one perturbed cell"
            (fun ?params grids ->
              k.Kernel.run ?params grids;
              let m = Grids.find grids out in
              Mesh.set_flat m 0 (Mesh.get_flat m 0 +. 1e-3))
      | Kernel_raise ->
          let k = Serial_backend.compile_compiled config ~shape group in
          Kernel.make ~name:k.Kernel.name ~backend:buggy_name
            ~description:"compiled, then raises"
            (fun ?params grids ->
              k.Kernel.run ?params grids;
              raise
                (Sf_resilience.Fault.Injected
                   {
                     site = "kernel";
                     kind = Sf_resilience.Fault.Raise;
                     detail = buggy_name ^ ":" ^ group.Group.label;
                   }))
      | Nan_poison_cell ->
          let k = Serial_backend.compile_compiled config ~shape group in
          let out = (List.hd (Group.stencils group)).Stencil.output in
          Kernel.make ~name:k.Kernel.name ~backend:buggy_name
            ~description:"compiled + one NaN-poisoned cell"
            (fun ?params grids ->
              k.Kernel.run ?params grids;
              Mesh.set_flat (Grids.find grids out) 0 Float.nan)
      | Mis_skew_tile -> (
          (* a two-application temporal block whose skew is forced to 0:
             whenever the group actually carries an axis-0 dependence
             (required skew >= 1) and the slab is narrower than the axis,
             sub-step 2 reads stale neighbours across slab seams — exactly
             the bug [Schedule_check.certify_timetile_plan] flags as SF024,
             here smuggled past the certifier for the oracle to catch *)
          match
            if Timetile.required_skew group > 0 then
              Timetile.plan ~skew:0 ~block:2 config ~shape ~reps:2 group
            else None
          with
          | Some p -> Timetile.compile config ~shape p
          | None ->
              (* not susceptible (no axis-0 dependence, or untileable):
                 degrade to an honest two-application loop so the target
                 stays divergence-free *)
              let k = Serial_backend.compile_compiled config ~shape group in
              Kernel.make ~name:k.Kernel.name ~backend:buggy_name
                ~description:"two plain applications"
                (fun ?params grids ->
                  k.Kernel.run ?params grids;
                  k.Kernel.run ?params grids)));
  {
    backend = Jit.Custom buggy_name;
    config = Config.default;
    tname = buggy_name;
    apps = (match bug with Mis_skew_tile -> 2 | _ -> 1);
  }

(* ------------------------------------------------------- native column *)

(* The group's stencils in order, each over its rects: the compiled
   backend's execution, with the tier chosen by [prepare]. *)
let run_stencils ~prepare spec =
  let grids = Gen.build_grids spec in
  let params = Kernel.param_lookup spec.Gen.params in
  List.iter
    (fun (s : Stencil.t) ->
      Exec.validate_stencil grids ~shape:spec.Gen.shape s;
      let instantiate = prepare grids ~params s in
      List.iter
        (fun rect -> instantiate rect ())
        (Domain.resolve ~shape:spec.Gen.shape s.Stencil.domain))
    (Group.stencils spec.Gen.group);
  grids

let bitwise_mismatch ~target reference got =
  let rec go = function
    | [] -> Ok ()
    | name :: rest -> (
        let a = Mesh.data (Grids.find reference name)
        and b = Mesh.data (Grids.find got name) in
        let rec cell i =
          if i >= Float.Array.length a then None
          else if
            Int64.bits_of_float (Float.Array.get a i)
            <> Int64.bits_of_float (Float.Array.get b i)
          then Some i
          else cell (i + 1)
        in
        match cell 0 with
        | None -> go rest
        | Some i ->
            Error
              {
                target;
                grid = name;
                point = [ i ];
                expected = Float.Array.get a i;
                got = Float.Array.get b i;
                crashed = None;
              })
  in
  go (Grids.names reference)

type native_check = { summary : string; native_failures : (string * string) list }

let check_native ?(ulps = 512) ?(atol = 1e-11) labelled =
  (* the row evaluator first: it registers every structure, which one
     synchronous build then compiles *)
  let rows =
    List.map
      (fun (label, spec) -> (label, spec, run_stencils ~prepare:Exec.prepare_row spec))
      labelled
  in
  match Native.compile_pending () with
  | Error f -> (
      match Native.skipped f with
      | Some line -> { summary = line; native_failures = [] }
      | None ->
          let reason = Native.failure_to_string f in
          { summary = "native: build FAILED"; native_failures = [ ("native build", reason) ] })
  | Ok origin ->
      let before = (Native.stats ()).Native.native_cells in
      let check (label, spec, row) =
        let fail (d : divergence) = Some (label, divergence_to_string d) in
        match run_stencils ~prepare:Exec.prepare_compiled spec with
        | exception e ->
            Some (label, "native crashed: " ^ Printexc.to_string e)
        | got -> (
            match bitwise_mismatch ~target:"native vs compiled (bitwise)" row got with
            | Error d -> fail d
            | Ok () -> (
                match compare_grids ~ulps ~atol ~target:"native" (run_reference spec) got with
                | Error d -> fail d
                | Ok () -> None))
      in
      let native_failures = List.filter_map check rows in
      {
        summary =
          Printf.sprintf
            "native: %d program(s) against compiled (bitwise) and interp, %d \
             cell(s) run natively, one build (%s)"
            (List.length rows)
            ((Native.stats ()).Native.native_cells - before)
            (match origin with Native.Disk -> "disk cache" | Native.Built -> "gcc");
        native_failures;
      }
