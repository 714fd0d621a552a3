(* The OpenCL-style micro-compiler (paper §IV.B).

   Each cluster of the group's [Plan] (built for [`Opencl]) becomes one
   NDRange "kernel enqueue" on an in-order queue: a barrier separates
   consecutive enqueues (no cross-stencil overlap, matching the backend
   the paper describes).  The NDRange is decomposed with tall-skinny
   blocking: 2-D tiles of the innermost two axes, each tile rolled upward
   through the full extent of the outer axes; every tile is a work-group,
   farmed to the pool's compute units.  Stencils that are not
   point-parallel degrade to a single sequential work-item.  Under
   [Config.fusion] a multi-member cluster is one "mega-kernel" enqueue
   whose work-groups run every member over their tile. *)

open Snowflake

let description (cfg : Config.t) (plan : Plan.t) =
  let workers = Pool.workers (Pool.create ~workers:cfg.Config.workers) in
  let rows, cols = cfg.Config.tall_skinny in
  let enqueues = List.length plan.Plan.clusters in
  match Fusion.fused_count plan.Plan.clusters with
  | 0 ->
      Printf.sprintf
        "opencl: %d enqueue(s); tall-skinny %dx%d; %d compute unit(s)"
        enqueues rows cols workers
  | _ ->
      Printf.sprintf
        "opencl+fusion: %d stencil(s) as %d enqueue(s); tall-skinny %dx%d; \
         %d compute unit(s); partition %s"
        (Group.length plan.Plan.group)
        enqueues rows cols workers
        (Fusion.describe plan.Plan.clusters)

let compile (cfg : Config.t) ~shape (group : Group.t) =
  let plan = Plan.build cfg ~shape ~backend:`Opencl group in
  Kernel.make ~name:group.Group.label ~backend:"opencl"
    ~description:(description cfg plan)
    (Plan.executor cfg ~shape plan)
