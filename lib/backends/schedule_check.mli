(** Race certification of the parallel backends' task plan.

    The certifier checks the {!Plan.t} the executor runs, built by the
    same {!Plan.build}.  In a wave, every unit of every task
    ({!Plan.units}: one per tile of a parallel task, or a whole
    sequential task) runs concurrently with the others.
    {!wave_conflicts} verifies the fundamental safety property the
    Diophantine analysis is supposed to guarantee — no two concurrent
    units touch the same cell with at least one write — by exact lattice
    intersection over the plan's actual tiles, and reports {e every}
    conflicting pair, not just the first.  A unit may hold several fused
    stencils and so write several grids; pairs are pruned by bucketing
    units on grid name, since a conflict always involves somebody's
    written grid, so only writer×writer and writer×reader pairs of the
    same grid are intersected.  Overlap inside one unit is never a
    conflict: its members and tiles run sequentially.

    {!certify} wraps the checker as an [sflint] pass ([SF021]–[SF023])
    and is what [Jit.compile] runs under [SF_VALIDATE=1] /
    [Config.certify]. *)

open Snowflake

type conflict = {
  first : int;  (** unit index within the wave, [first < second] *)
  second : int;
  first_label : string;  (** member labels joined by ["+"] *)
  second_label : string;
  grid : string;  (** the grid on which the units collide *)
  kind : string;  (** ["write/write"], ["write/read"] or ["read/write"] *)
}

val wave_conflicts : Plan.task list -> conflict list
(** All conflicting pairs among tasks that run concurrently (each task
    runs its members over its tiles sequentially), deduplicated and
    sorted by task indices; empty iff the wave is race-free. *)

val plan_conflicts : Plan.t -> (int * conflict list) list
(** {!wave_conflicts} over the units of every wave of a plan; only
    non-clean waves appear, paired with their index. *)

val conflict_to_string : conflict -> string

val certify :
  Config.t ->
  shape:Sf_util.Ivec.t ->
  backend:Plan.backend ->
  Group.t ->
  Sf_analysis.Diagnostics.t list
(** Report every intra-wave conflict of the backend's plan with fusion
    forced off as an [SF021] error, plus an [SF022] warning for each
    [Config.force_parallel] label that overrides the analysis.  When
    [Config.fusion] is on and the partition actually fused something,
    the fused plan — the one the executor runs — is checked too and its
    conflicts reported as [SF023] errors.  An empty (or error-free)
    result certifies the plan race-free. *)

val certify_timetile :
  Config.t ->
  shape:Sf_util.Ivec.t ->
  Group.t ->
  Sf_analysis.Diagnostics.t list
(** One [SF025] error per property that forbids time-tiling the group
    ({!Timetile.illegalities}); empty iff [Timetile.legal]. *)

val certify_timetile_plan :
  Config.t ->
  shape:Sf_util.Ivec.t ->
  Timetile.plan ->
  Sf_analysis.Diagnostics.t list
(** {!certify_timetile} plus an [SF024] error when the plan's skew is
    below {!Timetile.required_skew} — the mis-skewed plan the fuzzer
    injects is rejected here before any backend sees it. *)
