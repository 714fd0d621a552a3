(* serve: an sfserved daemon on a Unix socket with [nproc] executor
   threads, driven in an open loop at a fixed rate over two connections
   (two tenants) by this single-threaded process.  About 90% of requests
   come from a hot set of HPGMG operator programs (compile-cache hits),
   about 10% are fresh generated programs (each a compile miss).  Time
   goes to protocol encode/decode, admission, queueing, polling, grid
   build and the guard scan more than to kernels, so this workload
   bypasses kernel optimisations and is the only one that exercises the
   serving layers. *)

open Common
module P = Sf_serve.Protocol
module Client = Sf_serve.Client
module Corpus = Sf_fuzz.Corpus
module Gen = Sf_fuzz.Gen
module Json = Sf_trace.Json
module Jit = Sf_backends.Jit
module Kernel = Sf_backends.Kernel
module Mix = Perfbench.Mix
module Openloop = Perfbench.Openloop

(* The fixed offered load, about half the highest rate the ladder below
   sustained in busy periods on a 2-CPU host (see README.md). *)
let rate = 30.
let ladder = [ 30.; 45.; 60.; 90.; 120.; 180. ]
let ladder_seconds = 3.

(* A rung of the ladder is sustained when its tail latency stays under
   this limit with no failures and no growing backlog. *)
let latency_limit_ms = 50.
(* Fresh set-ups before the open loop, and as many again after it: this
   host's speed changes in phases lasting seconds, and set-ups taken 20 s
   apart are less likely to all fall in one phase. *)
let setups = 8

(* ------------------------------------------------------------- daemon *)

type daemon = { pid : int; socket : string }

let live = ref []

let reap d =
  (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ ->
      (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
      let rec wait n =
        match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ when n > 0 -> Unix.sleepf 0.01; wait (n - 1)
        | 0, _ ->
            (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] d.pid)
        | _ -> ()
      in
      wait 300
  | _ -> ()
  | exception Unix.Unix_error _ -> ());
  (try Sys.remove d.socket with Sys_error _ -> ());
  live := List.filter (fun x -> x.pid <> d.pid) !live

let () = at_exit (fun () -> List.iter reap !live)

let counter = ref 0

let spawn (o : opts) =
  incr counter;
  let dir = if Sys.file_exists "_build" then "_build/" else "" in
  let socket = Printf.sprintf "%sperfbench-%d-%d.sock" dir (Unix.getpid ()) !counter in
  if Sys.file_exists socket then Sys.remove socket;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process o.sfserved
      [| "sfserved"; "--socket"; socket; "--threads"; string_of_int (nproc ());
         "--workers"; "1"; "--queue"; "1024"; "--max-inflight"; "1024";
         "--no-faults" |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  let d = { pid; socket } in
  live := d :: !live;
  let rec await n =
    if Sys.file_exists socket then ()
    else if n = 0 || fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
      failwith ("sfserved did not start: " ^ o.sfserved)
    else begin
      Unix.sleepf 0.002;
      await (n - 1)
    end
  in
  await 5000;
  d

(* The socket file appears at bind, a moment before the daemon listens:
   a refused connection is retried for up to 5 s. *)
let connect d tenant =
  let rec go n =
    match Client.connect_unix ~tenant d.socket with
    | Ok c -> c
    | Error _ when n > 0 -> Unix.sleepf 0.001; go (n - 1)
    | Error e -> failwith ("connect: " ^ e)
  in
  go 5000

let stop d c =
  (match Client.shutdown c with Ok () -> () | Error _ -> ());
  Client.close c;
  (match Unix.waitpid [] d.pid with _ -> () | exception Unix.Unix_error _ -> ());
  live := List.filter (fun x -> x.pid <> d.pid) !live

(* ----------------------------------------------------------- programs *)

type prepared = {
  prog : Mix.program;
  text : string;
  expected : (int, string) Stdlib.result;
      (** hash of the reference result, or why there is none *)
}

(* Order-independent over grids (sorted by name, as the server sends
   them), exact over every float's bits. *)
let hash_grids (grids : (string * int * (int -> float)) list) =
  List.fold_left
    (fun h (name, n, get) ->
      let h = ref ((h * 31) + Hashtbl.hash name) in
      for i = 0 to n - 1 do
        h := (!h * 0x100000001b3) lxor Int64.to_int (Int64.bits_of_float (get i))
      done;
      !h)
    17
    (List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) grids)

let hash_reply (grids : P.grid list) =
  hash_grids
    (List.map (fun (g : P.grid) -> (g.P.gname, Array.length g.P.gdata, Array.get g.P.gdata)) grids)

(* The expected reply: the same spec run locally the way the daemon
   runs it (openmp, one worker, [reps] applications per call), whose
   bits every reply must reproduce.  That local run is itself checked
   against the Interp backend, to [interp_tol] of each grid's max norm:
   the two associate sums differently and are not bitwise equal.
   [`Nonfinite] when Interp itself gives values that are not finite, a
   property of the generated program rather than a defect; an
   exception, or a local run that strays from Interp, is an [Error] and
   fails the request that carries the program. *)
let interp_tol = 1e-12

let reference (prog : Mix.program) =
  let spec = prog.Mix.spec in
  let shape = spec.Gen.shape and group = spec.Gen.group in
  let run kernel calls =
    let grids = Gen.build_grids spec in
    for _ = 1 to calls do
      kernel.Kernel.run ~params:spec.Gen.params grids
    done;
    List.map
      (fun n -> (n, Sf_mesh.Mesh.data (Sf_mesh.Grids.find grids n)))
      (Sf_mesh.Grids.names grids)
  in
  let finite (_, d) = Float.Array.for_all Float.is_finite d in
  match run (Jit.compile Jit.Interp ~shape group) prog.Mix.reps with
  | exception e -> `Error ("Interp: " ^ Printexc.to_string e)
  | interp when not (List.for_all finite interp) -> `Nonfinite
  | interp -> (
      let config = Sf_backends.Config.with_workers 1 Sf_backends.Config.default in
      match
        if prog.Mix.reps = 1 then run (Jit.compile ~config Jit.Openmp ~shape group) 1
        else run (Jit.compile_time_tiled ~config ~reps:prog.Mix.reps Jit.Openmp ~shape group) 1
      with
      | exception e -> `Error ("openmp: " ^ Printexc.to_string e)
      | served ->
          let agrees (name, d) =
            let r = List.assoc name interp in
            let norm = Float.Array.fold_left (fun a x -> Float.max a (Float.abs x)) 0. r in
            let ok = ref true in
            Float.Array.iteri
              (fun i x ->
                if not (Float.is_finite x && Float.abs (x -. Float.Array.get r i) <= interp_tol *. norm)
                then ok := false)
              d;
            !ok
          in
          if List.for_all agrees served then
            `Ok
              (hash_grids
                 (List.map (fun (n, d) -> (n, Float.Array.length d, Float.Array.get d)) served))
          else `Error "openmp result strays from Interp")

let prepare prog =
  let make expected = { prog; text = Corpus.to_string prog.Mix.spec; expected } in
  match reference prog with
  | `Ok h -> Some (make (Ok h))
  | `Error e ->
      info "check: %s has no reference: %s" prog.Mix.name e;
      Some (make (Error e))
  | `Nonfinite -> None

(* Every request of the mix resolved to a prepared program; a fresh seed
   whose program has no finite Interp result is replaced by the next
   seed.  A program without a reference is still sent: its request
   fails. *)
let resolve ~seed ~count =
  let hot =
    Array.map
      (fun (p : Mix.program) ->
        match prepare p with
        | Some p -> p
        | None -> failwith (p.Mix.name ^ ": Interp result is not finite"))
      (Lazy.force Mix.hot_set)
  in
  let fresh = Hashtbl.create 64 in
  let rec fresh_prog s tries =
    match prepare (Mix.fresh s) with
    | Some p -> p
    | None when tries > 0 -> fresh_prog (s + 1) (tries - 1)
    | None -> failwith "no generated program with a finite result"
  in
  Array.map
    (function
      | Mix.Hot i -> hot.(i)
      | Mix.Fresh s -> (
          match Hashtbl.find_opt fresh s with
          | Some p -> p
          | None ->
              let p = fresh_prog s 16 in
              Hashtbl.add fresh s p;
              p))
    (Mix.draw ~seed ~count)

(* ---------------------------------------------------------- open loop *)

type loop = {
  summary : Openloop.summary;
  samples : Openloop.sample array;
  mismatches : int;
  refs : (float * float) list;  (** drift reference: (time, seconds) *)
}

(* The drift reference: one hand GSRB sweep on a 32³ level, timed every
   [probe_every] seconds in the generator's idle time (about 1% of one
   CPU at the fixed rate). *)
let probe_every = 0.1

let hand_level n =
  lazy
    (let l = Sf_hpgmg.Level.create ~n in
     Sf_hpgmg.Level.set_beta l Sf_hpgmg.Problem.beta_smooth;
     Sf_hpgmg.Baseline.init_dinv l;
     l)

let hand_sweep =
  let level = hand_level 32 in
  fun () -> Sf_hpgmg.Baseline.smooth_gsrb (Lazy.force level)

let submit_of p =
  { P.program = p.text; backend = "openmp"; workers = 1; reps = p.prog.Mix.reps; fault = "" }

let open_loop ?(span = false) clients ~programs ~rate =
  let mismatches = ref 0 in
  (* replies are checked when the generator would otherwise sleep, so
     the check stays out of the measured latencies *)
  let unchecked = Queue.create () in
  let refs = ref [] and last_probe = ref neg_infinity in
  let probe () =
    last_probe := Pstats.now_s ();
    refs := (!last_probe, snd (Pstats.timed hand_sweep)) :: !refs
  in
  let wrap name f = if span then Trace.span Trace.Phase ("bench:" ^ name) f else f () in
  let ops =
    {
      Openloop.now = Pstats.now_s;
      sleep = Unix.sleepf;
      submit =
        (fun i ->
          let c = clients.(i mod Array.length clients) in
          match wrap "client.submit" (fun () -> Client.submit c (submit_of programs.(i))) with
          | Ok (P.Accepted { ticket }) -> `Sent (i, c, ticket)
          | Ok (P.Busy _) -> `Busy
          | Ok _ | Error _ -> `Failed);
      poll =
        (fun (i, c, ticket) ->
          match wrap "client.poll" (fun () -> Client.poll c ticket) with
          | Ok (P.Pending _) -> None
          | Ok (P.Result { grids; _ }) ->
              Queue.push (i, grids) unchecked;
              Some true
          | Ok _ | Error _ -> Some false);
      idle =
        (fun () ->
          match Queue.take_opt unchecked with
          | Some (i, grids) ->
              if Ok (hash_reply grids) <> programs.(i).expected then incr mismatches;
              true
          | None when Pstats.now_s () -. !last_probe >= probe_every ->
              probe ();
              true
          | None -> false);
    }
  in
  let due = Openloop.schedule ~start:(Pstats.now_s ()) ~rate ~count:(Array.length programs) in
  let samples = Openloop.run ops ~due in
  while List.length !refs < 20 do probe () done;
  { summary = Openloop.summarize samples; samples; mismatches = !mismatches;
    refs = !refs }

(* Each completed request is paired with the median reference timed
   within [window] seconds of its reply (the nearest five if fewer). *)
let window = 0.5

let timing l =
  let done_ok = List.filter (fun s -> s.Openloop.ok) (Array.to_list l.samples) in
  let local t =
    let near = List.filter (fun (at, _) -> Float.abs (at -. t) <= window) l.refs in
    let near =
      if List.length near >= 5 then near
      else
        List.sort (fun (a, _) (b, _) -> Float.compare (Float.abs (a -. t)) (Float.abs (b -. t))) l.refs
        |> List.filteri (fun i _ -> i < 5)
    in
    Stats.median (Array.of_list (List.map snd near))
  in
  let ops = Array.of_list (List.map (fun s -> s.Openloop.finished -. s.Openloop.due) done_ok) in
  let refs = Array.of_list (List.map (fun s -> local s.Openloop.finished) done_ok) in
  { ops; refs; ratios = Array.map2 ( /. ) ops refs }

(* -------------------------------------------------------------- stats *)

type stats = {
  request_p50_us : float;
  request_p99_us : float;
  solve_p50_us : float;
  queue_hwm : float;
  busy : float;
  coalesced : float;
  jit_hits : float;
  jit_misses : float;
}

let server_stats c =
  let doc =
    match Client.stats c with
    | Ok s -> ( match Json.of_string s with Ok d -> d | Error e -> failwith e)
    | Error e -> failwith ("stats: " ^ e)
  in
  let num path =
    let rec go v = function
      | [] -> ( match v with Json.Num x -> x | _ -> nan)
      | k :: rest -> ( match Json.member k v with Some v -> go v rest | None -> nan)
    in
    go doc path
  in
  let series name key =
    match Json.member "series" doc with
    | Some (Json.Arr l) -> (
        match
          List.find_opt (fun s -> Json.member "name" s = Some (Json.Str name)) l
        with
        | Some s -> ( match Json.member key s with Some (Json.Num x) -> x | _ -> nan)
        | None -> nan)
    | _ -> nan
  in
  {
    request_p50_us = series "serve.request_us" "p50_us";
    request_p99_us = series "serve.request_us" "p99_us";
    solve_p50_us = series "serve.solve_us" "p50_us";
    queue_hwm = num [ "queue"; "hwm" ];
    busy = num [ "busy_rejections" ];
    coalesced = num [ "coalesced_compiles" ];
    jit_hits = num [ "jit"; "hits" ];
    jit_misses = num [ "jit"; "misses" ];
  }

(* -------------------------------------------------------------- setup *)

(* Set-up is corrected for drift against 128 hand GSRB sweeps on a 16³
   level, about 6 ms, the order of the set-up itself: a single 32³
   sweep, at a third of a millisecond, is too short to time steadily
   next to it.  Their typical time on the development host is the unit
   [setup_s] is expressed in (see [Common.setup_metric]). *)
let setup_reference =
  let level = hand_level 16 in
  fun () ->
    for _ = 1 to 128 do
      Sf_hpgmg.Baseline.smooth_gsrb (Lazy.force level)
    done

let nominal_reference_s = 0.006

(* Daemon spawn to the first reply (a cold compile in the daemon). *)
let fresh_setup o first =
  Pstats.timed (fun () ->
      let d = spawn o in
      let c = connect d "setup" in
      (match Client.solve ~poll_interval_s:2e-4 c (submit_of first) with
      | Ok (Client.Solved { grids; _ }) when Ok (hash_reply grids) = first.expected -> ()
      | Ok (Client.Solved _) -> failwith "first reply differs from the reference"
      | Ok (Client.Failed { code; message }) -> failwith ("first request: " ^ code ^ ": " ^ message)
      | Error e -> failwith ("first request: " ^ e));
      (d, c))

let latency_ms l = Array.map (fun s -> s *. 1e3) l.summary.Openloop.latency

let describe name l =
  let s = l.summary in
  let ms = latency_ms l in
  let lag = Array.map (fun x -> x *. 1e3) s.Openloop.lag in
  info "%s: %d requests, %d completed, %d failed (%d wrong replies), %d BUSY"
    name s.Openloop.attempted s.Openloop.completed s.Openloop.failed l.mismatches
    s.Openloop.busy;
  info "%s: latency from due p50 %.3f ms%s; generator lag p50 %.3f ms max %.3f ms, %.1f%% sent >1 ms late; %.2f polls/request"
    name (Stats.median ms)
    (match Pstats.tail ms with Some (p, v) -> Printf.sprintf ", %s %.3f ms" p v | None -> "")
    (Stats.median lag) (Stats.maximum lag) (100. *. s.Openloop.late_frac)
    s.Openloop.polls_per_request

let run (o : opts) =
  let count = max 40 (int_of_float (rate *. o.seconds)) in
  let rung r = max 100 (int_of_float (r *. ladder_seconds)) in
  (* traced runs also need fresh programs for every rung of the ladder *)
  let extra = if o.trace then List.fold_left (fun a r -> a + rung r) 0 ladder else 0 in
  let programs = resolve ~seed:o.seed ~count:(count + extra) in
  (* the same first request whatever the seed, so set-up time does not
     depend on which program the mix happens to start with *)
  let first = Option.get (prepare (Mix.hot "gsrb32_r1")) in
  let setups_of n =
    fresh_setups ~n
      ~setup:(fun () -> fresh_setup o first)
      ~release:(fun (d, c) -> stop d c)
      ~reference:(fun _ -> setup_reference ())
  in
  let (d, setup_client), times, refs = setups_of (if o.trace then 1 else setups) in
  let clients = Array.init 2 (fun i -> connect d (Printf.sprintf "tenant%d" i)) in
  let finish () =
    let st = server_stats setup_client in
    let rss = peak_rss_mb ~pid:(string_of_int d.pid) () in
    Array.iter Client.close clients;
    stop d setup_client;
    (st, rss)
  in
  let failures l = l.summary.Openloop.failed + l.mismatches in
  let ws =
    Array.fold_left
      (fun acc p ->
        Float.max acc
          (List.fold_left
             (fun a (g : Gen.grid_spec) -> a +. float_of_int (8 * Sf_util.Ivec.product g.Gen.gshape))
             0. p.prog.Mix.spec.Gen.grids))
      0. programs
    /. 1048576.
  in
  let server_lines st =
    info "server: request p50 %.0f us p99 %.0f us, solve p50 %.0f us, queue hwm %.0f, %.0f BUSY, %.0f coalesced compiles, jit %.0f hits / %.0f misses"
      st.request_p50_us st.request_p99_us st.solve_p50_us st.queue_hwm st.busy st.coalesced
      st.jit_hits st.jit_misses
  in
  if not o.trace then begin
    let l = open_loop clients ~programs ~rate in
    describe (Printf.sprintf "open loop at %.0f req/s" rate) l;
    let st, rss = finish () in
    server_lines st;
    let (d2, c2), times2, refs2 = setups_of setups in
    stop d2 c2;
    {
      correct = failures l = 0;
      attempted = l.summary.Openloop.attempted;
      failed = failures l;
      metrics =
        setup_metric ~nominal_s:nominal_reference_s
          (Array.append times times2, Array.append refs refs2)
        :: m "peak_rss_mb" "MB" rss
        :: (let t = timing l in op_metrics ~tail_ratios:t.ratios t);
      working_set_mb = ws;
    }
  end
  else begin
    let half = count / 2 in
    let untraced = open_loop clients ~programs:(Array.sub programs 0 half) ~rate in
    let traced =
      with_tracing (fun () ->
          open_loop ~span:true clients ~programs:(Array.sub programs half half) ~rate)
    in
    describe "untraced" untraced;
    describe "traced" traced;
    (* the rate ladder: highest rung whose tail stays under the limit
       with nothing failed and no growing backlog; wrong replies count as
       failures of the run *)
    let next = ref count and ladder_attempted = ref 0 and ladder_wrong = ref 0 in
    let sustained r =
      let progs = Array.sub programs !next (rung r) in
      next := !next + rung r;
      let l = open_loop clients ~programs:progs ~rate:r in
      ladder_attempted := !ladder_attempted + l.summary.Openloop.attempted;
      ladder_wrong := !ladder_wrong + l.mismatches;
      let tail = match Pstats.tail (latency_ms l) with Some (_, v) -> v | None -> infinity in
      let ok = failures l = 0 && tail <= latency_limit_ms && not (Openloop.backlog_growing l.samples) in
      info "ladder: %.0f req/s: tail %.3f ms, %d failed, %s" r tail (failures l)
        (if ok then "sustained" else "not sustained");
      ok
    in
    let rec climb best = function
      | r :: rest when sustained r -> climb r rest
      | _ -> best
    in
    let max_rate = climb 0. ladder in
    info "ladder: max sustained rate %.0f req/s (limit %.0f ms)" max_rate latency_limit_ms;
    let st, _ = finish () in
    server_lines st;
    let s = traced.summary in
    let p50_us = 1e3 *. Stats.median (latency_ms traced) in
    let failed = failures untraced + failures traced + !ladder_wrong in
    {
      correct = failed = 0;
      attempted =
        untraced.summary.Openloop.attempted + s.Openloop.attempted + !ladder_attempted;
      failed;
      metrics =
        [
          overhead ~untraced:(timing untraced) ~traced:(timing traced);
          m "client.polls_per_request" "count" s.Openloop.polls_per_request;
          m "openloop.late_frac" "frac" s.Openloop.late_frac;
          m "serve.outside_server_frac" "frac" (1. -. (st.request_p50_us /. p50_us));
          m "server.solve_frac" "frac" (st.solve_p50_us /. st.request_p50_us);
          m "server.queue_depth_hwm" "count" st.queue_hwm;
          m "server.busy_rejections" "count" st.busy;
          m "server.coalesced_compiles" "count" st.coalesced;
          m "jit.compiles" "count" st.jit_misses;
          m "jit.hit_ratio" "frac" (st.jit_hits /. Float.max 1. (st.jit_hits +. st.jit_misses));
          m "serve.max_rate_rps" "1/s" max_rate;
        ];
      working_set_mb = ws;
    }
  end
