(** Analytic cost annotations for kernel trace spans.

    Devito-style accounting: every compiled kernel knows, from its own
    intermediate representation, how much arithmetic and memory traffic a
    single invocation performs — no hardware counters involved.

    - [cells]: lattice points written, summed over the group's stencils
      ({!Snowflake.Domain.npoints_union} of each resolved domain — exact
      when write sets are disjoint, which the analysis certifies).
    - [flops]: per-cell arithmetic × cells: the operator nodes of the
      expression tree the executors evaluate, with every subtree that
      reads no grid folded to a constant ({!Snowflake.Expr.fold}).
    - [bytes]: 8 bytes × the read/write footprint sizes
      ({!Sf_analysis.Footprint}), with the write counted twice
      (write-allocate + write-back) when the output grid is not already
      streamed in as a read — the same compulsory-traffic model as
      [Sf_roofline.Bound.bytes_of_stencil], but exact per-grid footprints
      instead of whole-grid estimates. *)

open Sf_util
open Snowflake

type t = { cells : int; flops : int; bytes : int }

val of_stencil : shape:Ivec.t -> Stencil.t -> t

val of_group : shape:Ivec.t -> Group.t -> t
(** Component-wise sum over the group's stencils. *)

val of_fused : shape:Ivec.t -> Stencil.t list -> t
(** Single-pass model for a fused sweep over the member stencils:
    [cells]/[flops] sum as in {!of_group}, but [bytes] counts each
    distinct grid once — the bounding box of every lattice the grid
    contributes (reads and writes, all members), x2 when written
    (write-allocate + write-back) — instead of charging every member its
    full footprint.  This is what stops shared reads from being
    double-counted. *)

val of_clusters : shape:Ivec.t -> Stencil.t list list -> t
(** Sum over a fusion partition: singleton clusters cost {!of_stencil}
    exactly (unfused parity), multi-member clusters cost {!of_fused}. *)

val of_timetile : shape:Ivec.t -> reps:int -> Group.t -> t
(** The time-tiled stack of [reps] group applications: arithmetic and
    cells scale with [reps], bytes are the {e one-pass} fused-sweep
    traffic — k sweeps over a slab column while it stays cache-hot cost
    ~one DRAM pass. *)

val args : t -> (string * Sf_trace.Trace.arg) list
(** The [cells]/[flops]/[bytes] span arguments the trace reporter and the
    Chrome exporter consume. *)
