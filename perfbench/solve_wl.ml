(* solve: HPGMG variable-coefficient V(2,2)-cycles through Mg on the
   openmp backend with one worker.  One operation is one V-cycle of the
   64³ hierarchy (six levels, down to 2³).  Its time splits between
   per-cell work on the fine level and per-call overhead on the coarse
   ones; it is the only workload that runs the Mg phases and the pool's
   serial-cutoff path. *)

open Sf_mesh
open Sf_hpgmg
open Common
module Jit = Sf_backends.Jit
module Config = Sf_backends.Config
module Pool = Sf_backends.Pool

(* Checked before timing: the DSL solution after [check_cycles] cycles
   must match the hand Baseline solver to [u_tol] (relative to the hand
   solution's max norm), and every checked cycle must cut the residual
   by at least [max_reduction]. *)
let check_cycles = 3
let u_tol = 1e-9
let max_reduction = 0.25
let setups = 5

let config =
  {
    Mg.default_config with
    backend = Jit.Openmp;
    jit = Config.with_workers 1 Config.default;
  }

let size (o : opts) = if o.smoke then 16 else 64

let build ~seed ~n =
  let mg = Mg.create ~config ~n () in
  Mg.set_beta mg Problem.beta_smooth;
  Problem.setup_variable ~seed (Mg.finest mg);
  Mg.set_beta mg Problem.beta_smooth;
  mg

(* Mg.create, problem set-up and the first V-cycle, from a cleared JIT
   cache. *)
let fresh_setup ~seed ~n =
  Jit.clear_cache ();
  Gc.compact ();
  Pstats.timed (fun () ->
      let mg = build ~seed ~n in
      Mg.vcycle mg;
      mg)

let check ~seed ~n =
  let dsl = build ~seed ~n in
  let hand = Baseline.create ~n () in
  Baseline.set_beta hand Problem.beta_smooth;
  Problem.setup_variable ~seed (Baseline.finest hand);
  Baseline.set_beta hand Problem.beta_smooth;
  ignore (Baseline.residual_norm hand);
  let norms = Array.make (check_cycles + 1) (Mg.residual_norm dsl) in
  for c = 1 to check_cycles do
    Mg.vcycle dsl;
    Baseline.vcycle hand;
    (* both refresh their finest ghost cells, so u compares whole *)
    ignore (Baseline.residual_norm hand);
    norms.(c) <- Mg.residual_norm dsl
  done;
  let u_hand = Level.u (Baseline.finest hand) in
  let diff = Mesh.max_abs_diff (Level.u (Mg.finest dsl)) u_hand in
  let scale = Mesh.norm_linf u_hand in
  let factors =
    Array.init check_cycles (fun c -> norms.(c + 1) /. norms.(c))
  in
  let u_ok = diff <= u_tol *. scale in
  let red_ok = Array.for_all (fun f -> f < max_reduction) factors in
  info "check: |u_dsl - u_hand|_inf = %.3g (tol %.1g x %.3g) %s" diff u_tol
    scale (if u_ok then "ok" else "MISMATCH");
  info "check: residual reduction per cycle %s (limit %.2f) %s"
    (String.concat " "
       (List.map (Printf.sprintf "%.4f") (Array.to_list factors)))
    max_reduction
    (if red_ok then "ok" else "TOO SLOW");
  (* two checks: solution agreement and convergence; the hand solver
     goes on as the timing reference *)
  (2, (if u_ok then 0 else 1) + (if red_ok then 0 else 1), hand)

let working_set_mb ~n =
  (* nine (n+2)³ meshes per level, summed over the hierarchy *)
  let rec levels n acc = if n < 2 then acc else levels (n / 2) (acc + (9 * (n + 2) * (n + 2) * (n + 2))) in
  float_of_int (8 * levels n 0) /. 1048576.

let finite mg = Float.is_finite (Mg.residual_norm mg)

(* The hand V-cycle's typical time at 64³ on the development host, the
   unit [setup_s] is expressed in (see [Common.setup_metric]). *)
let nominal_reference_s = 0.015

let run (o : opts) =
  let n = size o in
  let seed = o.seed in
  let dof = float_of_int (n * n * n) in
  let checks, mismatches, hand = check ~seed ~n in
  let reference () = Baseline.vcycle hand in
  let mg, times, refs =
    fresh_setups
      ~n:(if o.trace then 1 else setups)
      ~setup:(fun () -> fresh_setup ~seed ~n)
      ~release:ignore
      ~reference:(fun _ -> reference ())
  in
  let vcycle () = Mg.vcycle mg in
  let ws = working_set_mb ~n in
  let metrics, timed_ops =
    if not o.trace then begin
      let t = interleaved ~seconds:o.seconds vcycle reference in
      info "solve: %d^3, %d V-cycles, DOF/s = %.4g DSL, %.4g hand (finest DOF / median V-cycle)"
        n (Array.length t.ops) (dof /. Stats.median t.ops) (dof /. Stats.median t.refs);
      ( setup_metric ~nominal_s:nominal_reference_s (times, refs)
        :: m "peak_rss_mb" "MB" (peak_rss_mb ())
        :: op_metrics ~tail_ratios:t.ratios t,
        Array.length t.ops )
    end
    else begin
      let half = o.seconds /. 2. in
      let untraced = interleaved ~seconds:half vcycle reference in
      Pool.reset_stats ();
      with_tracing (fun () ->
          let traced =
            interleaved ~seconds:half (bench_span "mg.vcycle" vcycle) reference
          in
          let ops = Array.length traced.ops in
          let vc = span_us ~kind:Trace.Vcycle (fun _ -> true) in
          let phase name =
            span_us ~kind:Trace.Phase (String.starts_with ~prefix:(name ^ " "))
          in
          let fine =
            span_us ~kind:Trace.Phase (fun n ->
                List.mem n [ "smooth L0"; "residual L0"; "restrict L0->L1"; "interp L1->L0" ])
          in
          let phases = [ "smooth"; "residual"; "restrict"; "interp"; "bottom" ] in
          let total = List.fold_left (fun a p -> a +. phase p) 0. phases in
          List.iter
            (fun p -> info "mg: %s %.3f ms per V-cycle" p (phase p /. 1e3 /. float_of_int ops))
            phases;
          ( overhead ~untraced ~traced
            :: List.map (fun p -> m (Printf.sprintf "mg.%s_frac" p) "frac" (phase p /. vc)) phases
            @ [
                m "mg.fine_level_frac" "frac" (fine /. vc);
                m "mg.unattributed_frac" "frac" ((vc -. total) /. vc);
              ]
            @ runtime_attribution ~ops ~pool:(Pool.stats ()),
            Array.length untraced.ops + ops ))
    end
  in
  let failed = mismatches + if finite mg then 0 else 1 in
  { correct = failed = 0; attempted = timed_ops + checks; failed; metrics;
    working_set_mb = ws }
