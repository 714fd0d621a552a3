(** Rect executors: the innermost machinery shared by all backends.

    A backend lowers a stencil group to a schedule of (stencil, lattice
    tile) tasks.  {!prepare_compiled} performs the per-invocation
    compilation work for one stencil — constant folding
    ({!Snowflake.Expr.fold}), read grouping, delta computation, grid
    lookups — and returns a reusable, thread-safe tile runner; executing
    the (many) tiles then costs only index arithmetic.  Every strategy
    evaluates the stencil's own expression tree, each operator node on
    its two operands left to right, so all of them are bitwise equal:

    - {!run_rect_interp} walks the expression AST at every point with
      bounds-checked mesh access — slow, obviously correct, the oracle.
    - the compiled path has two tiers behind one thunk.  The row
      evaluator: the tree, with every subtree that reads no grid folded
      to a constant once per invocation (the same float operations, so
      the same bits), compiles into one loop pass per operator node
      ([+ - * /] and negation), each filling a block of inner-axis rows
      of a scratch row from two operands — a read, another node's scratch
      row or a folded constant — with per-read-group flat positions
      strength-reduced to incremental adds and no float boxed.  The
      native tier ({!Native}): the same folded tree emitted as a C
      function, one temporary per operator node, compiled by gcc and
      called through [dlopen] once the stencil's structure has updated
      enough cells to repay the compile; a tile may switch tier between
      runs.  Both perform unchecked reads/writes: legality is established
      beforehand by {!Sf_analysis.Footprint.check_in_bounds}
      ({!validate_stencil}).

    Execution order within a rect is row-major over the lattice; in-place
    stencils therefore see earlier writes of the same sweep, which is the
    DSL's sequential semantics.  The row evaluator keeps it by sizing its
    blocks per tile: a block reads everything before it stores, so a read
    of the output mesh (found by physical identity, whatever name it is
    bound under) that lands on a cell written k cells earlier in the same
    row limits blocks to k cells, one landing d rows back limits them to d
    rows, and an in-place read group that does not advance in lockstep
    with the output gets single cells.  Stride-2 colourings (GSRB) keep
    full blocks; a lexicographic in-place sweep runs cell by cell.  The
    native tier needs none of this: its loop nest stores each cell before
    it evaluates the next.  Backends only reorder or parallelise when the analysis proves it
    unobservable. *)

open Sf_mesh
open Snowflake

val run_rect_interp :
  Grids.t -> params:(string -> float) -> Stencil.t -> Domain.resolved -> unit

val prepare_compiled :
  Grids.t -> params:(string -> float) -> Stencil.t ->
  (Domain.resolved -> unit -> unit)
(** Two-stage: applying the result to a tile *instantiates* it (geometry,
    buffers — do this once per tile, at plan-build time) and yields a
    zero-setup thunk executing the tile.  Thunks for distinct tiles may run
    concurrently; one thunk is not reentrant. *)

val prepare_row :
  Grids.t -> params:(string -> float) -> Stencil.t ->
  (Domain.resolved -> unit -> unit)
(** {!prepare_compiled} without the native tier: the row evaluator alone,
    the reference the native tier is checked against bit for bit. *)

val run_rect_compiled :
  Grids.t -> params:(string -> float) -> Stencil.t -> Domain.resolved -> unit
(** [prepare_compiled] + immediate single-tile run (test convenience). *)

val validate_stencil : Grids.t -> shape:Sf_util.Ivec.t -> Stencil.t -> unit
(** Checks that every touched grid exists, ranks agree with the iteration
    shape, and all accesses stay in bounds; raises [Invalid_argument] with a
    descriptive message otherwise.  Backends call this once per kernel
    invocation before entering unchecked loops. *)
