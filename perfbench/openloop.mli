(** A single-threaded open-loop request generator and its accounting.

    Requests are due on a fixed schedule regardless of how the server
    keeps up.  Latency is measured from the {e due} time, so a stall
    delays every later request's clock too; how late the generator
    itself sent each request (lag) is reported separately.  The
    transport is abstract so the accounting can be tested with a fake
    clock and server. *)

type 'h ops = {
  now : unit -> float;  (** monotonic seconds *)
  sleep : float -> unit;
  submit : int -> [ `Sent of 'h | `Busy | `Failed ];
      (** send request [i]; [`Busy] retries it on the next pass *)
  poll : 'h -> bool option;
      (** [None] while pending; [Some ok] once the request finished *)
  idle : unit -> bool;
      (** one unit of deferred work, done instead of sleeping; [false]
          when there was none *)
}

type sample = {
  due : float;
  mutable sent : float;  (** first send attempt; [nan] if never sent *)
  mutable finished : float;  (** [nan] if it never finished *)
  mutable ok : bool;
  mutable polls : int;
  mutable busy : int;
}

val schedule : start:float -> rate:float -> count:int -> float array
(** Due times of [count] requests at a fixed [rate] (per second). *)

val run : 'h ops -> due:float array -> sample array
(** Send request [i] once [due.(i)] has passed, poll every outstanding
    request once per pass; when a pass made no progress, do one unit of
    [idle] work, or sleep at most 0.2 ms if there is none.  Outstanding
    [idle] work is finished before returning.  Gives up on requests
    still outstanding 30 s after the last due time. *)

type summary = {
  attempted : int;
  completed : int;  (** finished with a correct reply *)
  failed : int;  (** refused, failed, wrong or never finished *)
  latency : float array;  (** seconds from due to reply, completed only *)
  lag : float array;  (** seconds from due to first send, sent only *)
  polls_per_request : float;
  late_frac : float;  (** share of requests first sent over 1 ms after due *)
  busy : int;  (** BUSY replies seen *)
}

val summarize : sample array -> summary

val backlog_growing : sample array -> bool
(** Whether latency climbed through the run (last quarter's median over
    twice the first quarter's plus 1 ms, or nothing in it completed). *)
