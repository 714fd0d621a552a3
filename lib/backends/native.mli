(** The native tier: stencils as gcc-compiled C.

    Snowflake's micro-compilers emit C, compile it at run time and call
    it.  This module does that for every stencil {!Exec} prepares,
    underneath {!Exec.prepare_compiled}, so every backend (serial
    compiled, OpenMP, OpenCL, time tiling) gets it without a separate
    code path or option.

    {b One function per structure.}  {!prepare} emits one C function
    straight from the stencil's own expression tree, with its
    parameter-only subtrees folded ({!Snowflake.Expr.fold}): a row-major
    loop nest over the tile whose cell body holds one temporary per
    operator node, operands left to right — exactly the association
    {!Snowflake.Expr.eval} and the row evaluator use.  Built with
    [-ffp-contract=off], it is bitwise equal to both, so every bitwise
    promise of the executors holds whichever tier ran.  Folded constants,
    tap deltas, strides and tile geometry are run-time arguments: one
    build serves every level, shape and parameter value of a structure
    (the tree with its constants blanked), and its name is a digest of
    its body.

    {b Tiering.}  Each structure counts the cells it updates in this
    process.  Past 4M cells (the break-even: roughly the row evaluator's
    time for one gcc run, ~0.1 s) it is promoted: the shared object is loaded from the
    on-disk cache when present, otherwise gcc starts in the background
    (one build at a time; later promotions queue).
    No kernel call waits on gcc; tiles poll the build at most every 2 ms
    and switch tier on their next run once it is loaded (one
    [Atomic.get]).  Until then, and for good when gcc is missing or a
    build or load fails, the row evaluator runs.

    {b Cache.}  [Filename.get_temp_dir_name ()/snowflake-native-<uid>],
    which must be a directory private to the user.  The key digests the C
    source, the [gcc --version] line, the flags and the stub ABI.  A file
    is published by rename and carries the digest of its own bytes; a
    truncated or foreign file fails that check, is removed and rebuilt,
    and is never loaded.  gcc runs in its own process group and job
    directory under a timeout; at exit running builds are killed and
    their directories removed.  Handles are never closed, so clearing
    the JIT cache leaves loaded code in place.

    {b Faults.}  The sites ["native-compile"] (before gcc starts) and
    ["native-load"] (before dlopen) of {!Sf_resilience.Fault} turn a build
    into a failure, and the structure stays on the row evaluator. *)

open Snowflake

val flags : string list
(** [-O2 -fPIC -shared -ffp-contract=off]. *)

type prepared
(** One stencil bound to its grids and parameter values: its structure's
    shared state, data arrays, coefficients and tap deltas. *)

type layout = {
  dims : int;
  slots : string array;  (** grid behind each data pointer; slot 0 is the output *)
  groups : (string * Sf_util.Ivec.t) array;
      (** read groups: one (grid, scale) pair each, with one position per
          cell *)
  taps : ((string * Affine.t) * int * int) array;
      (** each distinct read with its slot and group *)
}

val prepare : Sf_mesh.Grids.t -> Stencil.t -> Expr.t -> prepared
(** [prepare grids s e], with [e] the stencil's folded expression, emits
    (or finds) the structure's function and registers the structure with
    the tiering. *)

val layout : prepared -> layout
(** The numbering {!Exec}'s row evaluator shares. *)

val tap_index : layout -> string * Affine.t -> int

val deltas : prepared -> int array
(** Flat offset of each tap from its group's position. *)

val geometry :
  prepared -> counts:int array -> out_base:int -> out_inc:int array ->
  gbase:int array -> ginc:int array array -> int array
(** A tile's run-time geometry: lattice counts, the output's and each
    group's flat start and per-axis steps. *)

val run : prepared -> int array -> cells:int -> (unit -> unit) -> unit
(** [run p geo ~cells row] runs the tile natively when its structure is
    loaded, else [row ()] (the row evaluator), counting [cells] and
    promoting or polling as needed. *)

val emit_source : params:(string -> float) -> Stencil.t -> string
(** The C function {!prepare} would build for this stencil (no
    registration). *)

val translation_unit : string list -> string
(** Functions as one compilable C file. *)

(** {2 Synchronous builds (tests, sffuzz)} *)

type failure =
  | No_gcc
  | Timeout
  | Compile_error of string
  | Load_error of string
  | Injected of string  (** a fault site fired *)
  | Cache_unusable of string

val failure_to_string : failure -> string
(** E.g. ["gcc not found"], ["compile timeout"]. *)

val skipped : failure -> string option
(** The line a test prints when native checks cannot run here —
    ["native: skipped (no gcc)"], or the timeout, fault or cache reason —
    or [None] when the failure is a bug in the emitted C (a compile or
    load error), which a test must report instead. *)

type origin = Disk | Built

val compile_pending : ?timeout:float -> unit -> (origin, failure) result
(** Build every registered structure that is not native yet (nor being
    built in the background) as one shared object, with one gcc
    invocation (or none on a disk-cache hit), waiting for it, and switch
    them all to native.  The threshold plays no part.  [timeout] defaults
    to the background builds' 60 s. *)

(** {2 Observability} *)

type stats = {
  structures : int;
  native_structures : int;
  promotions : int;
  disk_hits : int;
  builds : int;  (** gcc runs that produced a published file *)
  failures : int;  (** failed builds and loads *)
  native_cells : int;
  row_cells : int;  (** stencil cells the row evaluator updated *)
  fallback : string option;  (** the latest failure's reason *)
}

val stats : unit -> stats
(** Process-wide, counted whether or not tracing is on. *)

val native_share : stats -> float
(** Native cells over all stencil cells the compiled path updated. *)

val describe : unit -> string
(** One line: the native share of cells, structure and build counts, and
    the reason for any fallback. *)
