(* Shared plumbing: options, the result record and its JSON line, peak
   RSS, and the machine stamp printed with every result. *)

module Pstats = Perfbench.Pstats
module Stats = Sf_util.Stats

type opts = {
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;  (** small sizes, for the tests; every metric still prints *)
  sfserved : string;  (** path of the built daemon (serve only) *)
}

type metric = { name : string; unit_ : string; value : float }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  working_set_mb : float;  (** data the workload's operations touch *)
}

let m name unit_ value = { name; unit_; value }

let info fmt = Printf.ksprintf (fun s -> print_endline ("# " ^ s)) fmt

(* ------------------------------------------------------------ samples *)

(* On a shared host the whole machine's speed drifts: medians of the
   same 64³ V-cycle ranged 83-127 ms between runs minutes apart, while
   its ratio to the hand-written V-cycle timed right after it stayed
   within 7.5-7.9.  So every workload pairs each operation with a
   hand-written reference timed next to it, and the gated metrics are
   statistics of the per-operation ratios. *)
type timing = {
  ops : float array;  (** seconds per workload operation *)
  refs : float array;  (** seconds of the hand-written reference paired with each *)
  ratios : float array;  (** each operation relative to its reference *)
}

(* At least this many pairs per timed phase, so that sweeps' four calls
   per round give the 100 samples a p90 needs. *)
let min_samples = 25

(* Repeat [pair] — one operation and its reference, returning both
   durations and the operation's ratio to the reference — until
   [seconds] have passed and at least [min_samples] pairs were taken. *)
let paired ~seconds pair =
  let t_end = Pstats.now_s () +. seconds in
  let acc = ref [] and n = ref 0 in
  while Pstats.now_s () < t_end || !n < min_samples do
    acc := pair () :: !acc;
    incr n
  done;
  let l = List.rev !acc in
  {
    ops = Array.of_list (List.map (fun (d, _, _) -> d) l);
    refs = Array.of_list (List.map (fun (_, r, _) -> r) l);
    ratios = Array.of_list (List.map (fun (_, _, q) -> q) l);
  }

(* Operations alternate with references, and each operation's ratio is
   to the mean of the references just before and just after it, so a
   change of host speed within the pair cancels. *)
let interleaved ~seconds op reference =
  let (), r0 = Pstats.timed reference in
  let before = ref r0 in
  paired ~seconds (fun () ->
      let (), d = Pstats.timed op in
      let (), r = Pstats.timed reference in
      let q = d /. ((!before +. r) /. 2.) in
      before := r;
      (d, r, q))

let tail_or_max xs =
  match Pstats.tail xs with Some lt -> lt | None -> ("max", Stats.maximum xs)

(* The gated ratios: the median of [t.ratios] and the tail of
   [tail_ratios] (the same ratios, except on sweeps, whose tail is taken
   over single calls). *)
let op_metrics ~tail_ratios t =
  let ms = Array.map (fun s -> s *. 1e3) t.ops in
  let label, tail = tail_or_max ms in
  let rlabel, rtail = tail_or_max tail_ratios in
  info "op time: n=%d p50 %.3f ms, %s %.3f ms; hand reference p50 %.3f ms; ratio p50 %.3f, %s %.3f (of %d)"
    (Array.length ms) (Stats.median ms) label tail
    (Stats.median t.refs *. 1e3) (Stats.median t.ratios) rlabel rtail
    (Array.length tail_ratios);
  [ m "op_vs_hand_p50" "ratio" (Stats.median t.ratios); m "op_vs_hand_tail" "ratio" rtail ]

(* Set-up time is corrected for host drift the same way.  Each of [n]
   fresh set-ups is followed by the workload's hand [reference] (median
   of five), and [setup_s] is the median set-up ÷ reference ratio times
   [nominal_s], the reference's typical duration on the 2-CPU
   development host: the set-up time at that host's speed.  The raw
   seconds go on [#] lines.  [release] frees a set-up's state before
   the next one; the last state is returned. *)
let ref_reps = 5

let fresh_setups ~n ~setup ~release ~reference =
  let times = Array.make n 0. and refs = Array.make n 0. in
  let rec go i prev =
    Option.iter release prev;
    let s, dt = setup () in
    times.(i) <- dt;
    refs.(i) <- Stats.median (Array.init ref_reps (fun _ -> snd (Pstats.timed (fun () -> reference s))));
    if i + 1 = n then s else go (i + 1) (Some s)
  in
  let s = go 0 None in
  (s, times, refs)

let setup_metric ~nominal_s (times, refs) =
  let show a = String.concat " " (List.map (Printf.sprintf "%.4f") (Array.to_list a)) in
  let ratios = Array.map2 ( /. ) times refs in
  info "setup: %s s raw; hand reference %s s; ratio %s" (show times) (show refs) (show ratios);
  info "setup: median raw %.4f s; median ratio %.3f x nominal reference %.4f s" (Stats.median times)
    (Stats.median ratios) nominal_s;
  m "setup_s" "s" (Stats.median ratios *. nominal_s)

(* ---------------------------------------------------------------- RSS *)

let status_field pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.sub line 0 i = field ->
                 Scanf.sscanf_opt
                   (String.sub line (i + 1) (String.length line - i - 1))
                   " %d kB" Fun.id
             | _ -> None)

let peak_rss_mb ?(pid = "self") () =
  match status_field pid "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> nan

(* ------------------------------------------------------------ machine *)

(* First line of [prog args]'s output, or "unavailable". *)
let command_line prog args =
  match Unix.pipe ~cloexec:true () with
  | exception Unix.Unix_error _ -> "unavailable"
  | rd, wr -> (
      let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let pid =
        try Some (Unix.create_process prog (Array.of_list (prog :: args)) devnull wr devnull)
        with Unix.Unix_error _ -> None
      in
      Unix.close wr;
      Unix.close devnull;
      let ic = Unix.in_channel_of_descr rd in
      let out = In_channel.input_all ic in
      close_in ic;
      match pid with
      | None -> "unavailable"
      | Some pid -> (
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 when String.trim out <> "" ->
              String.trim (List.hd (String.split_on_char '\n' out))
          | _ -> "unavailable"))

let read_trim path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> Some (String.trim s)
  | exception Sys_error _ -> None

(* The largest cache level sysfs reports for cpu0, in MiB. *)
let llc_mb =
  lazy
    (let parse s =
       Scanf.sscanf_opt s "%d%s" (fun v suffix ->
           match suffix with
           | "K" -> float_of_int v /. 1024.
           | "M" -> float_of_int v
           | _ -> float_of_int v /. 1048576.)
     in
     List.init 5 (fun i ->
         read_trim
           (Printf.sprintf "/sys/devices/system/cpu/cpu0/cache/index%d/size" i))
     |> List.filter_map (fun s -> Option.bind s parse)
     |> List.fold_left Float.max 0.)

let nproc () = Domain.recommended_domain_count ()

(* The roofline layer's STREAM dot product over two 32 MB arrays, median
   of five after one warm-up, 16 bytes per element. *)
let stream_gbs =
  lazy
    (let n = 4_000_000 in
     let a = Float.Array.make n 1. and b = Float.Array.make n 2. in
     let t =
       Stats.median
         (Array.init 6 (fun _ -> snd (Pstats.timed (fun () -> ignore (Sf_roofline.Stream.dot a b)))))
     in
     16. *. float_of_int n /. t /. 1e9)

let stamp ~working_set_mb =
  info "machine: nproc=%d ocaml=%s gcc=%s rev=%s" (nproc ()) Sys.ocaml_version
    (command_line "gcc" [ "-dumpfullversion" ])
    (command_line "git" [ "rev-parse"; "--short"; "HEAD" ]);
  info "machine: STREAM dot %.2f GB/s (this run), largest cache %.1f MiB"
    (Lazy.force stream_gbs) (Lazy.force llc_mb);
  info
    "machine: working set %.1f MiB vs cache %.1f MiB; the 4x-cache \
     bandwidth rule is %s, so every bytes figure is computed from Bound, \
     not measured"
    working_set_mb (Lazy.force llc_mb)
    (if working_set_mb >= 4. *. Lazy.force llc_mb then "met" else "not met")

(* -------------------------------------------------------------- output *)

let num v = Printf.sprintf "%.17g" v

(* A metric that could not be measured (no samples) prints as 0 and
   makes the run incorrect: JSON has no NaN. *)
let print_result r =
  let bad = List.filter (fun x -> not (Float.is_finite x.value)) r.metrics in
  List.iter (fun x -> Printf.eprintf "perfbench: %s could not be measured\n" x.name) bad;
  let r =
    if bad = [] then r
    else
      { r with correct = false;
        metrics = List.map (fun x -> if Float.is_finite x.value then x else { x with value = 0. }) r.metrics }
  in
  let metrics =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (num x.value)
          x.unit_)
      r.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed
    (String.concat ", " metrics);
  r.correct

(* ---------------------------------------------------------- per-layer *)

module Trace = Sf_trace.Trace

(* Per-layer metrics taken from the workload's own traced run.  A layer
   the workload never reaches reads 0, so every workload prints every
   name. *)
let attribution =
  [
    ("mg.smooth_frac", "frac"); ("mg.residual_frac", "frac");
    ("mg.restrict_frac", "frac"); ("mg.interp_frac", "frac");
    ("mg.bottom_frac", "frac"); ("mg.fine_level_frac", "frac");
    ("mg.unattributed_frac", "frac"); ("kernel.calls_per_op", "count");
    ("kernel.time_frac", "frac"); ("pool.jobs_per_op", "count");
    ("pool.inline_runs_per_op", "count"); ("pool.chunks_per_op", "count");
    ("jit.compiles", "count"); ("jit.hit_ratio", "frac");
    ("client.polls_per_request", "count");
    ("serve.outside_server_frac", "frac"); ("server.solve_frac", "frac");
    ("server.queue_depth_hwm", "count"); ("server.busy_rejections", "count");
    ("server.coalesced_compiles", "count"); ("serve.max_rate_rps", "1/s");
    ("openloop.late_frac", "frac");
    ("trace.overhead_frac", "frac"); ("roofline.working_set_mb", "MB");
    ("machine.llc_mb", "MB");
  ]

(* [attributed given] fills every {!attribution} name, 0 where the
   workload gave nothing. *)
let attributed given =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) given with
      | Some x -> x
      | None -> m name unit_ 0.)
    attribution

let with_tracing f =
  Trace.clear ();
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled false) f

(* Run [op] under a benchmark span named [name] (the span wraps the call
   into the layer's public function). *)
let bench_span name op () = Trace.span Trace.Phase ("bench:" ^ name) op

let span_us ?kind pred =
  List.fold_left
    (fun acc (e : Trace.event) ->
      if (match kind with None -> true | Some k -> e.Trace.kind = k)
         && pred e.Trace.name
      then acc +. e.Trace.dur_us
      else acc)
    0. (Trace.events ())

let span_count kind =
  List.length
    (List.filter (fun (e : Trace.event) -> e.Trace.kind = kind) (Trace.events ()))

(* Kernel, pool and JIT figures common to the in-process workloads;
   [ops] is how many workload operations the traced half ran. *)
let runtime_attribution ~ops ~(pool : Sf_backends.Pool.stats) =
  let per x = float_of_int x /. float_of_int ops in
  let op_us = span_us (fun n -> String.starts_with ~prefix:"bench:" n) in
  let hits, misses = Sf_backends.Jit.cache_stats () in
  [
    m "kernel.calls_per_op" "count" (per (span_count Trace.Kernel));
    m "kernel.time_frac" "frac" (span_us ~kind:Trace.Kernel (fun _ -> true) /. op_us);
    m "pool.jobs_per_op" "count" (per pool.Sf_backends.Pool.jobs);
    m "pool.inline_runs_per_op" "count" (per pool.Sf_backends.Pool.inline_runs);
    m "pool.chunks_per_op" "count" (per pool.Sf_backends.Pool.chunks);
    m "jit.compiles" "count" (float_of_int misses);
    m "jit.hit_ratio" "frac"
      (float_of_int hits /. float_of_int (max 1 (hits + misses)));
  ]

(* Traced against untraced operations, each relative to its own
   interleaved reference so host drift between the halves cancels. *)
let overhead ~untraced ~traced =
  let rel t = Stats.median t.ratios in
  info "trace overhead: untraced p50 %.3f ms (%.3f x hand), traced p50 %.3f ms (%.3f x hand)"
    (Stats.median untraced.ops *. 1e3) (rel untraced)
    (Stats.median traced.ops *. 1e3) (rel traced);
  m "trace.overhead_frac" "frac" ((rel traced /. rel untraced) -. 1.)
