(** sf_trace: a structured tracing and metrics substrate.

    The paper evaluates Snowflake by profiling every (operation, level)
    pair of an HPGMG solve and comparing it against machine limits.  This
    module makes that accounting a property of the runtime rather than of
    hand-inserted timers: the JIT, the backend executors, the domain pool,
    [Spmd] and [Mg] all report spans and counters here, so every kernel
    invocation is attributed to its stencil group, wave and backend without
    user code changes.

    {b Zero overhead when off.}  Tracing is disabled by default; every
    instrumentation site in a hot path is guarded by {!on} — a single load
    of one [Atomic.t] and a branch.  No argument lists are built, no
    closures allocated and no locks taken unless tracing is enabled
    ([SF_TRACE=1] in the environment, [Config.trace], the [--trace] CLI
    flags, or {!set_enabled}).  A dedicated test asserts the disabled-mode
    bound.

    When enabled, completed spans are appended to a process-global buffer
    (mutex-protected; safe from worker domains) and can be exported as a
    Chrome [trace_event] JSON document ([chrome://tracing], Perfetto) or
    aggregated into the roofline-joined summary of {!Report}. *)

(** Span taxonomy — the choke points of the runtime. *)
type kind =
  | Compile  (** one [Jit.compile] cache miss: optimize + certify + lower *)
  | Certify  (** the [Schedule_check] certifier inside a compile *)
  | Wave  (** one barrier-delimited wave (OpenMP), enqueue (OpenCL) or
              stencil pass (serial backends) inside a kernel run *)
  | Kernel  (** one invocation of a compiled kernel, annotated with
                analytic cells/flops/bytes *)
  | Chunk  (** one pool chunk, recorded on the executing domain *)
  | Vcycle  (** one multigrid V- or F-cycle *)
  | Phase  (** everything else: solver phases, harness timings, SPMD *)

val kind_name : kind -> string
(** Lower-case name, used as the Chrome [cat] field. *)

type arg = Int of int | Float of float | Str of string

type event = {
  kind : kind;
  name : string;
  ts_us : float;  (** start, µs since the trace epoch (process start) *)
  dur_us : float;
  tid : int;  (** executing domain id *)
  args : (string * arg) list;
}

(** {2 Enabling} *)

val on : unit -> bool
(** One [Atomic.get] — the guard every hot instrumentation site uses.
    Initially true iff [SF_TRACE] is set to [1]/[true]/[yes]/[on]. *)

val set_enabled : bool -> unit

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run with tracing forced on/off, restoring the previous state (used by
    tests). *)

(** {2 Spans} *)

val now_us : unit -> float
(** Wall clock in µs since the trace epoch — the time base of every
    span. *)

val span : ?args:(string * arg) list -> kind -> string -> (unit -> 'a) -> 'a
(** [span kind name f] runs [f], recording a completed span on the calling
    domain when tracing is enabled.  The span is recorded even when [f]
    raises (and the exception re-raised), so failing phases are never
    silently dropped from the profile.  When tracing is disabled this is
    exactly [f ()]. *)

val record_span :
  ?args:(string * arg) list -> kind -> string -> ts_us:float ->
  dur_us:float -> unit
(** Record an externally timed span (callers that already hold a start
    time, e.g. [Sf_harness.Timer]).  No-op when tracing is disabled.

    Kernel spans carrying a [bytes] argument additionally get a
    [pct_roofline_peak] argument when a machine bandwidth has been
    declared with {!set_bandwidth_gbs}: 100 × (bytes / bandwidth) /
    duration — the fraction of the STREAM-predicted peak the invocation
    achieved. *)

(** {2 Counters} *)

type counter =
  | Cells_updated  (** lattice points written by kernel invocations *)
  | Chunks_dispatched  (** pool chunks published to the shared slot *)
  | Chunks_stolen  (** pool chunks executed by helper domains *)
  | Inline_fallbacks  (** batches run inline (cutoff, nesting, 1 worker) *)
  | Cache_hits  (** [Jit.compile] cache hits *)
  | Cache_misses
  | Faults_injected  (** [Fault.fire] firings (sf_resilience) *)
  | Retries  (** supervised kernel retries *)
  | Failovers  (** backend failovers in a supervised chain *)
  | Rollbacks  (** checkpoint-ring restores *)
  | Guard_trips  (** non-finite values caught by guard scans *)
  | Tasks_skipped  (** pool tasks drained unrun after a batch abort *)
  | Rank_recoveries  (** [Spmd] dead-rank reconstructions *)
  | Tune_db_hits  (** autotuner plans served from the persistent DB *)
  | Tune_db_misses  (** autotuner runs that had to measure candidates *)
  | Channel_sends  (** halo planes pushed into pipeline ring buffers *)
  | Channel_stalls
      (** scheduler passes in which a runnable pipeline node waited on
          ring space or data (back-pressure visibility) *)
  | Native_promotions
      (** stencil structures promoted to the native tier (sf_backends
          [Native]) *)
  | Native_disk_hits  (** native builds loaded from the on-disk cache *)
  | Native_failures  (** native builds or loads that failed *)
  | Native_cells  (** lattice points updated by gcc-compiled kernels *)

val add : counter -> int -> unit
(** Atomic increment; no-op when tracing is disabled (callers in hot paths
    guard with {!on} first so not even the argument is evaluated). *)

type counters = {
  cells_updated : int;
  chunks_dispatched : int;
  chunks_stolen : int;
  inline_fallbacks : int;
  cache_hits : int;
  cache_misses : int;
  faults_injected : int;
  retries : int;
  failovers : int;
  rollbacks : int;
  guard_trips : int;
  tasks_skipped : int;
  rank_recoveries : int;
  tune_db_hits : int;
  tune_db_misses : int;
  channel_sends : int;
  channel_stalls : int;
  native_promotions : int;
  native_disk_hits : int;
  native_failures : int;
  native_cells : int;
}

val counters : unit -> counters

(** {2 Roofline join} *)

val set_bandwidth_gbs : float -> unit
(** Declare the machine's measured STREAM bandwidth (GB/s); subsequent
    kernel spans are annotated with their % of the roofline-predicted
    peak.  Non-positive clears the annotation. *)

val bandwidth_gbs : unit -> float
(** 0. when unset. *)

(** {2 Inspection and export} *)

val events : unit -> event list
(** Completed spans in recording order. *)

val dropped : unit -> int
(** Spans discarded because the buffer cap (2M events) was reached. *)

val clear : unit -> unit
(** Drop all events and zero all counters; the enabled flag and declared
    bandwidth are kept. *)

type agg = {
  akind : kind;
  aname : string;
  calls : int;
  total_us : float;
  acells : float;  (** summed [cells] args (kernel spans), 0 otherwise *)
  aflops : float;
  abytes : float;
}

val summary : unit -> agg list
(** Events aggregated by (kind, name), sorted by total time descending. *)

val to_chrome_json : unit -> Json.t
(** The Chrome [trace_event] document: an object with a [traceEvents]
    array of complete ("ph":"X") events plus one final counter
    ("ph":"C") sample, and [displayTimeUnit]. *)

val write_chrome_json : string -> unit
(** Export {!to_chrome_json} to a file. *)
