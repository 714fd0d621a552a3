(** C + OpenMP source emission (paper §IV.A).

    Produces a complete C99 translation unit for a stencil group: one
    function whose body is the wave schedule — each concurrent unit of a
    task an [#pragma omp task], each inter-wave barrier an
    [#pragma omp taskwait].  It walks the [Plan.t] the executable OpenMP
    backend runs (waves, tiles, fused clusters, sequential fallbacks),
    so the emitted code is a faithful transcription of what this
    repository actually executes and measures. *)

open Sf_util
open Snowflake

val emit :
  ?config:Sf_backends.Config.t ->
  shape:Ivec.t ->
  grid_shapes:(string -> Ivec.t) ->
  Group.t ->
  string
(** [shape] is the iteration-space shape; [grid_shapes] gives each grid's
    allocated shape (for stride literals). *)
