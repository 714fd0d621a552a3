(* sweeps: single applications of CC 7-pt, CC Jacobi and VC GSRB on one
   128³ level through Jit.compile (openmp, one worker), plus 4-application
   GSRB through Jit.compile_time_tiled with time_tile = 4.  One operation
   is one round of all four calls.  Almost all the time is in large
   kernel calls, never in Mg, coarse levels or serving, so a per-cell
   kernel change shows here and a per-call overhead change does not. *)

open Sf_mesh
open Sf_hpgmg
open Common
module Jit = Sf_backends.Jit
module Config = Sf_backends.Config
module Kernel = Sf_backends.Kernel
module Pool = Sf_backends.Pool

let setups = 5
let size (o : opts) = if o.smoke then 32 else 128
let plain = Config.with_workers 1 Config.default
let tiled = { plain with Config.time_tile = 4 }

type op = {
  name : string;
  group : Snowflake.Group.t;
  apps : int;  (** applications of the group per call *)
  bytes : float;  (** [Bound]'s compulsory traffic per stencil *)
  hand : Level.t -> unit;
}

let ops =
  let module B = Sf_roofline.Bound in
  [
    { name = "cc7"; group = Perfbench.Mix.cc7_group; apps = 1; bytes = B.bytes_cc_7pt;
      hand = (fun l -> Baseline.laplacian_cc l ~out:(Level.res l) ~input:(Level.u l)) };
    { name = "jacobi"; group = Operators.jacobi_smooth; apps = 1; bytes = B.bytes_cc_jacobi;
      hand = Baseline.jacobi_cc };
    { name = "gsrb"; group = Operators.gsrb_smooth; apps = 1; bytes = B.bytes_vc_gsrb;
      hand = Baseline.smooth_gsrb };
    { name = "gsrb4_ttile"; group = Operators.gsrb_smooth; apps = 4; bytes = B.bytes_vc_gsrb;
      hand = (fun l -> for _ = 1 to 4 do Baseline.smooth_gsrb l done) };
  ]

let compile op ~shape =
  if op.apps = 1 then Jit.compile ~config:plain Jit.Openmp ~shape op.group
  else Jit.compile_time_tiled ~config:tiled ~reps:op.apps Jit.Openmp ~shape op.group

(* A level with the paper's smooth β and seeded inputs in [-1, 1]. *)
let prepared ~seed ~n =
  let level = Level.create ~n in
  Level.set_beta level Problem.beta_smooth;
  Baseline.init_dinv level;
  let st = Random.State.make [| seed |] in
  let rand _ _ _ = Random.State.float st 2. -. 1. in
  Level.fill_interior (Level.u level) level rand;
  Level.fill_interior (Level.f level) level rand;
  level

let fresh_setup ~seed ~n =
  Jit.clear_cache ();
  Gc.compact ();
  Pstats.timed (fun () ->
      let level = prepared ~seed ~n in
      let kernels = List.map (fun op -> (op, compile op ~shape:level.Level.shape)) ops in
      (level, kernels))

(* Each operator's DSL output must match its hand kernel run on an
   identical copy of the inputs, to the test suite's DSL-vs-hand
   criterion ([ulps] or [atol]).  The largest difference is printed:
   the two are not bitwise equal, because they associate the sums
   differently.  Returns the mismatches. *)
let ulps = 256
let atol = 1e-10

let check level kernels =
  let reference = { level with Level.grids = Grids.copy level.Level.grids } in
  let names = Grids.names level.Level.grids in
  let grid l g = Grids.find l.Level.grids g in
  List.fold_left
    (fun bad (op, k) ->
      List.iter (fun g -> Mesh.blit ~src:(grid level g) ~dst:(grid reference g)) names;
      k.Kernel.run ~params:(Level.params level) level.Level.grids;
      op.hand reference;
      let max_diff =
        List.fold_left
          (fun acc g -> Float.max acc (Mesh.max_abs_diff (grid level g) (grid reference g)))
          0. names
      in
      let same =
        List.for_all
          (fun g -> Mesh.first_mismatch ~ulps ~atol (grid level g) (grid reference g) = None)
          names
      in
      info "check: %s DSL vs hand kernel: max |diff| %.3g (limit %d ulp or %g) %s"
        op.name max_diff ulps atol (if same then "ok" else "MISMATCH");
      if same then bad else bad + 1)
    0 kernels

let working_set_mb ~n =
  float_of_int (8 * 9 * (n + 2) * (n + 2) * (n + 2)) /. 1048576.

let finite level =
  Float.is_finite (Mesh.norm_linf (Level.u level))

(* The hand round's (all four hand calls') typical time at 128³ on the
   development host, the unit [setup_s] is expressed in (see
   [Common.setup_metric]). *)
let nominal_reference_s = 0.14

let hand_round level = List.iter (fun op -> op.hand level) ops

let run (o : opts) =
  let n = size o in
  let (level, kernels), times, refs =
    fresh_setups
      ~n:(if o.trace then 1 else setups)
      ~setup:(fun () -> fresh_setup ~seed:o.seed ~n)
      ~release:ignore
      ~reference:(fun (level, _) -> hand_round level)
  in
  let mismatches = check level kernels in
  let params = Level.params level in
  let samples = Hashtbl.create 8 in
  let record key dt =
    Hashtbl.replace samples key (dt :: Option.value ~default:[] (Hashtbl.find_opt samples key))
  in
  (* One round: each DSL call followed by its hand version on the same
     level, so the pair sees the same host speed.  The round's time is
     the DSL sum; its ratio to hand is the geometric mean of the four
     calls' ratios, so each operator counts alike.  Each call's own
     ratio is kept too: the tail is taken over calls, four per round. *)
  let call_ratios = ref [] in
  let round ?(span = false) () =
    let dsl, hand, log_ratio =
      List.fold_left
        (fun (dsl, hand, lr) (op, k) ->
          let call () = k.Kernel.run ~params level.Level.grids in
          let (), d = Pstats.timed (if span then bench_span ("kernel." ^ op.name) call else call) in
          let (), h = Pstats.timed (fun () -> op.hand level) in
          record (op.name, `Dsl) d;
          record (op.name, `Hand) h;
          call_ratios := (d /. h) :: !call_ratios;
          (dsl +. d, hand +. h, lr +. log (d /. h)))
        (0., 0., 0.) kernels
    in
    (dsl, hand, exp (log_ratio /. float_of_int (List.length kernels)))
  in
  let stencils = float_of_int (n * n * n) in
  let report () =
    List.iter
      (fun op ->
        let rate impl =
          let t = Stats.median (Array.of_list (Hashtbl.find samples (op.name, impl))) in
          float_of_int op.apps *. stencils /. t /. 1e6
        in
        info "sweeps: %s %.2f M stencils/s DSL, %.2f hand (%d application%s per call, median of %d)"
          op.name (rate `Dsl) (rate `Hand) op.apps
          (if op.apps = 1 then "" else "s")
          (List.length (Hashtbl.find samples (op.name, `Dsl))))
      ops
  in
  let metrics, timed_ops =
    if not o.trace then begin
      let t = paired ~seconds:o.seconds round in
      report ();
      ( setup_metric ~nominal_s:nominal_reference_s (times, refs)
        :: m "peak_rss_mb" "MB" (peak_rss_mb ())
        :: op_metrics ~tail_ratios:(Array.of_list !call_ratios) t,
        Array.length t.ops )
    end
    else begin
      let half = o.seconds /. 2. in
      let untraced = paired ~seconds:half round in
      Pool.reset_stats ();
      let traced, attribution =
        with_tracing (fun () ->
            let traced = paired ~seconds:half (round ~span:true) in
            (traced, runtime_attribution ~ops:(Array.length traced.ops) ~pool:(Pool.stats ())))
      in
      report ();
      ( overhead ~untraced ~traced :: attribution,
        Array.length untraced.ops + Array.length traced.ops )
    end
  in
  (* one check per operator, one for finiteness after timing *)
  let failed = mismatches + if finite level then 0 else 1 in
  { correct = failed = 0; attempted = timed_ops + List.length ops + 1; failed;
    metrics; working_set_mb = working_set_mb ~n }
