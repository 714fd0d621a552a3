open Snowflake
open Sf_analysis

type backend = [ `Openmp | `Opencl ]

type task = {
  members : Stencil.t list;
  tiles : Domain.resolved list;
  parallel : bool;
}

type t = {
  group : Group.t;
  backend : backend;
  clusters : Fusion.cluster list;
  waves : task list list;
}

(* outer-axis subtasks per parallel OpenMP task without an explicit tile *)
let chunks = 8

let decompose (cfg : Config.t) backend r =
  match backend with
  | `Openmp -> (
      match cfg.Config.tile with
      | Some tile -> Tiling.split ~tile r
      | None -> Tiling.split_outer ~chunks r)
  | `Opencl -> Tiling.tall_skinny ~tile:cfg.Config.tall_skinny r

let task_of cfg ~shape backend (c : Fusion.cluster) =
  let members = c.Fusion.members in
  let first = List.hd members in
  let rects = Domain.resolve ~shape first.Stencil.domain in
  (* a multi-member cluster is cofusible: every member is point-parallel
     (or forced) and they share one domain *)
  let parallel =
    match members with
    | [ s ] ->
        Dependence.point_parallel ~shape s
        || List.mem s.Stencil.label cfg.Config.force_parallel
    | _ -> true
  in
  let tiles =
    if not parallel then rects
    else
      let per_rect = List.map (decompose cfg backend) rects in
      if cfg.Config.multicolor then Multicolor.interleave per_rect
      else List.concat per_rect
  in
  { members; tiles; parallel }

let build cfg ~shape ~backend group =
  let clusters = Fusion.partition cfg ~shape group in
  let tasks = Array.of_list (List.map (task_of cfg ~shape backend) clusters) in
  let placement =
    match backend with
    | `Openmp -> Fusion.waves ~shape clusters
    | `Opencl -> List.init (Array.length tasks) (fun i -> [ i ])
  in
  {
    group;
    backend;
    clusters;
    waves = List.map (List.map (Array.get tasks)) placement;
  }

let units t =
  if t.parallel then List.map (fun tile -> { t with tiles = [ tile ] }) t.tiles
  else [ t ]

let label t =
  String.concat "+"
    (List.map (fun (s : Stencil.t) -> s.Stencil.label) t.members)

let points t = Domain.npoints_union t.tiles * List.length t.members

let seq = function [ f ] -> f | fs -> fun () -> List.iter (fun f -> f ()) fs

(* one zero-setup thunk per unit; every member is instantiated once per
   task and then once per tile *)
let thunks grids ~glabel params t =
  let insts =
    List.map
      (fun (s : Stencil.t) ->
        let lookup =
          Kernel.param_lookup
            ~loc:(Srcloc.stencil ~group:glabel s.Stencil.label)
            params
        in
        Exec.prepare_compiled grids ~params:lookup s)
      t.members
  in
  let on_tile tile = seq (List.map (fun inst -> inst tile) insts) in
  List.map (fun u -> seq (List.map on_tile u.tiles)) (units t)

module Trace = Sf_trace.Trace

let executor (cfg : Config.t) ~shape plan =
  let shape = Array.copy shape in
  let group = plan.group in
  let glabel = group.Group.label in
  (* a view of the process-wide persistent domain pool: every kernel shares
     the same hot workers, capped here at the configured degree *)
  let pool =
    Pool.create ~workers:cfg.Config.workers
    |> Pool.with_serial_cutoff cfg.Config.serial_cutoff
  in
  let run_wave i points tasks =
    Serial_backend.wave_fault group i;
    Pool.run_tasks ~points pool tasks
  in
  let fused = Fusion.fused_count plan.clusters in
  let waves =
    Array.of_list
      (List.mapi
         (fun i wave ->
           let points = List.fold_left (fun acc t -> acc + points t) 0 wave in
           let ntasks =
             List.fold_left (fun acc t -> acc + List.length (units t)) 0 wave
           in
           let args =
             match plan.backend with
             | `Openmp ->
                 [
                   ("group", Trace.Str glabel);
                   ("wave", Trace.Int i);
                   ("points", Trace.Int points);
                   ("tasks", Trace.Int ntasks);
                 ]
                 @ if fused > 0 then [ ("fused", Trace.Int fused) ] else []
             | `Opencl ->
                 [
                   ("group", Trace.Str glabel);
                   ("wave", Trace.Int i);
                   ( "stencil",
                     Trace.Str (String.concat "+" (List.map label wave)) );
                   ("points", Trace.Int points);
                   ("tasks", Trace.Int ntasks);
                 ]
           in
           (points, args, Printf.sprintf "%s/wave%d" glabel i))
         plan.waves)
  in
  let stencils = Group.stencils group in
  let cache = Run_cache.create () in
  let names = Group.grids group in
  fun ?(params = []) grids ->
    let batches =
      Run_cache.get cache ~grids ~names ~params (fun () ->
          List.iter (Exec.validate_stencil grids ~shape) stencils;
          List.map
            (fun wave ->
              Array.of_list
                (List.concat_map (thunks grids ~glabel params) wave))
            plan.waves)
    in
    List.iteri
      (fun i tasks ->
        let points, args, name = waves.(i) in
        if Trace.on () then
          Trace.span ~args Trace.Wave name (fun () ->
              run_wave i points tasks)
        else run_wave i points tasks)
      batches
