(** Experiment drivers: one entry point per evaluation artefact of the
    paper (see DESIGN.md's experiment index and EXPERIMENTS.md for
    paper-vs-measured records).

    Each driver prints a self-contained table to stdout.  Measured numbers
    come from this host; numbers for the paper's machines (Core i7-4765T,
    K20c) are roofline-model projections, labelled as such — the shape of
    the comparison (who wins, by what factor) is the reproduction target,
    not the absolute rates. *)

type opts = {
  size : int;  (** cube edge for fixed-size experiments (paper: 256) *)
  sizes : int list;  (** sweep sizes for Fig. 8 (paper: 32..256) *)
  cycles : int;  (** V-cycles for the solver benchmark (paper: 10) *)
  workers : int;  (** pool degree for the OpenMP backend *)
  repeats : int;  (** timing repeats (best-of) *)
}

val csv_dir : string option ref
(** When set, every printed table is also written as [<name>.csv] into
    this directory — the raw data series behind each figure. *)

val default_opts : opts
(** size 32, sizes [8;16;32;64], cycles 4, workers 1, repeats 3 — sized
    for a single-core container; raise via the CLI for paper-scale
    runs. *)

val run_stream : opts -> unit
(** E1 (Fig. 6): the modified STREAM dot-product bandwidth. *)

val run_fig7 : opts -> unit
(** E2 (Fig. 7): stencils/s for CC 7-pt, CC Jacobi, VC GSRB at a fixed
    size, Snowflake vs hand-written vs roofline, CPU measured + GPU
    modelled.  The Snowflake columns time the tier a long run settles on:
    native C when this host can build it (else a [native: skipped ...]
    line and the row evaluator). *)

val run_fig8 : opts -> unit
(** E3 (Fig. 8): VC GSRB smoother time across problem sizes. *)

val run_fig9 : opts -> unit
(** E4 (Fig. 9): full GMG solve throughput (DOF/s). *)

val run_tiling : opts -> unit
(** A1: tile-size sweep on the GSRB smoother (OpenMP backend). *)

val run_multicolor : opts -> unit
(** A2: multicolor reordering on/off. *)

val run_waves : opts -> unit
(** A3: analysis-driven wave schedule vs a barrier after every stencil. *)

val run_fusion : opts -> unit
(** A4: the fusion pass on a 2-D unsharp-mask pipeline (point-wise sharpen
    folded into the blur), with result-equality guaranteed by the pass
    tests. *)

val tune_smoother :
  ?db:string ->
  ?repeats:int ->
  config:Sf_backends.Config.t ->
  backend:Sf_backends.Jit.backend ->
  n:int ->
  unit ->
  Sf_backends.Autotune.result
  * (Sf_backends.Autotune.plan * float * float option) list
(** The tune [hpgmg_run --autotune] runs: [Autotune.tune] on the VC GSRB
    smoother at [n]³ with the solver's smoothing count, each confirmed
    candidate timed best-of-[repeats] (default 3) on a scratch level.
    Also returns every candidate in the tuner's analytic order with its
    predicted and, for the confirmed few, measured seconds.  [db] as for
    [Autotune.tune]. *)

val run_autotune : opts -> unit
(** A5: {!tune_smoother} at [size]³ on the OpenMP backend against a
    throwaway DB: the ranked candidates and the measured winner. *)

val run_distributed : opts -> unit
(** D1: simulated SPMD GSRB (stencil-expressed halo exchange) vs the
    single-domain smoother of the same global size. *)

val run_verify : opts -> unit
(** V0: an HPGMG-style correctness gate printed into the benchmark log —
    convergence factor, discretisation error, DSL-vs-hand agreement,
    backend agreement, plan conflict-freedom. *)

val run_codegen : opts -> unit
(** Emit the OpenMP and OpenCL C sources for the GSRB smoother (a sample of
    the micro-compiler output; line counts reported). *)

val run_all : opts -> unit
