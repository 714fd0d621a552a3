(* The OpenMP-style micro-compiler (paper §IV.A).

   The group's [Plan] (built for [`Openmp]) places clusters greedily into
   waves; each point-parallel task is split into subtasks (explicit
   tiles, or outer-axis chunks); a wave's tasks are farmed to the pool and
   joined — the join is the OpenMP barrier.  Stencils the analysis cannot
   prove point-parallel run as a single sequential task, preserving the
   in-place sequential semantics while still overlapping with independent
   stencils of the same wave.  Waves below the configured point-count
   cutoff run inline on the calling domain (coarse multigrid levels are
   cheaper serial than dispatched).  Under [Config.fusion] a multi-member
   cluster runs every member over each tile, one pass over its grids. *)

open Snowflake

let description (cfg : Config.t) (plan : Plan.t) =
  let workers = Pool.workers (Pool.create ~workers:cfg.Config.workers) in
  let nwaves = List.length plan.Plan.waves in
  match Fusion.fused_count plan.Plan.clusters with
  | 0 ->
      (* clusters are singletons placed in program order, so the waves are
         consecutive runs of stencil indices *)
      let _, indices =
        List.fold_left_map
          (fun next wave ->
            let n = List.length wave in
            (next + n, List.init n (fun k -> next + k)))
          0 plan.Plan.waves
      in
      Format.asprintf "openmp: %d stencil(s) in %d wave(s); %d worker(s)@ %a"
        (Group.length plan.Plan.group)
        nwaves workers Sf_analysis.Schedule.pp_waves indices
  | _ ->
      Printf.sprintf
        "openmp+fusion: %d stencil(s) as %d cluster(s) in %d wave(s); %d \
         worker(s); partition %s"
        (Group.length plan.Plan.group)
        (List.length plan.Plan.clusters)
        nwaves workers
        (Fusion.describe plan.Plan.clusters)

let compile (cfg : Config.t) ~shape (group : Group.t) =
  let plan = Plan.build cfg ~shape ~backend:`Openmp group in
  Kernel.make ~name:group.Group.label ~backend:"openmp"
    ~description:(description cfg plan)
    (Plan.executor cfg ~shape plan)
