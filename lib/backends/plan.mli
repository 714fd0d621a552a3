(** The task plan of the parallel backends (paper §IV: the analysis places
    barriers once, each micro-compiler only emits that schedule).

    A plan is a list of waves; a wave is a list of tasks that run
    concurrently, and the join after each wave is the barrier.  A task
    runs its [members] in program order over each of its [tiles]: a
    multi-member task is a fused cluster ({!Fusion}), a one-member task a
    single stencil.  A [parallel] task's tiles are independent and each
    becomes its own pool task ({!units}); a task the analysis cannot
    prove point-parallel (and no [Config.force_parallel] label overrides)
    runs its tiles sequentially as one unit, keeping in-place sequential
    semantics while still overlapping with the other tasks of its wave.

    The plan is built from {!Fusion.partition}; with [Config.fusion] off
    every cluster is a singleton, so the unfused plan is the fused plan's
    special case.  Only two things depend on the backend, and both are
    fixed by it rather than configured:

    - tile decomposition: [`Openmp] splits by explicit [Config.tile]
      sizes or into a fixed number of outer-axis chunks; [`Opencl] uses
      [Config.tall_skinny] work-groups.  [Config.multicolor] interleaves
      either, once, here;
    - wave placement: [`Openmp] places clusters greedily
      ({!Fusion.waves}, which on singletons is
      [Schedule.greedy_waves]); [`Opencl]'s in-order queue gives every
      cluster its own wave.

    The executor ({!executor}), the race certifier
    ([Schedule_check.certify]) and the OpenMP source emitter
    ([Omp_emit]) all consume this one plan. *)

open Sf_util
open Snowflake

type backend = [ `Openmp | `Opencl ]

type task = {
  members : Stencil.t list;  (** program order; never empty *)
  tiles : Domain.resolved list;
  parallel : bool;  (** tiles are independent pool tasks *)
}

type t = {
  group : Group.t;
  backend : backend;
  clusters : Fusion.cluster list;  (** program order, one per task *)
  waves : task list list;
      (** every cluster's task exactly once, clusters in program order *)
}

val build : Config.t -> shape:Ivec.t -> backend:backend -> Group.t -> t

val units : task -> task list
(** The pieces of a task that run concurrently: one single-tile task per
    tile when [parallel], else the task itself.  The executor submits one
    pool task per unit; the certifier checks units pairwise. *)

val label : task -> string
(** Member labels joined by ["+"]. *)

val executor :
  Config.t ->
  shape:Ivec.t ->
  t ->
  ?params:(string * float) list ->
  Sf_mesh.Grids.t ->
  unit
(** The run function of a kernel executing the plan.  Once per new
    binding of grids and parameters ([Run_cache]) it validates every
    member and instantiates the tile thunks; every call then runs wave by
    wave through the pool ([Pool.run_tasks ~points]), consulting the
    [wave] fault site before each wave and recording a [Trace.Wave] span
    per wave when tracing is on. *)
