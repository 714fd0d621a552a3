(** Monotonic timing and the tail rule for the benchmark's samples;
    medians and percentiles are [Sf_util.Stats]'s. *)

val now_s : unit -> float
(** Seconds on bechamel's monotonic clock (arbitrary origin). *)

val timed : (unit -> 'a) -> 'a * float
(** Result and elapsed monotonic seconds. *)

val iqr_frac : float array -> float
(** Interquartile range as a share of the median. *)

val ladder : int list
(** The percentiles a tail may be reported at, in tenths of a percent:
    p50, p90, p99, p99.9. *)

val beyond : n:int -> int -> int
(** [beyond ~n p]: how many of [n] samples rank above the [p]-tenths
    percentile. *)

val tail : float array -> (string * float) option
(** The highest percentile of {!ladder} with at least ten samples beyond
    it, as [(label, value)] (e.g. [("p90", 12.5)]); [None] below twenty
    samples, where not even the median has ten beyond it. *)
