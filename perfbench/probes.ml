(* Per-layer probes: the same short measurements of each layer's public
   functions in every traced run, whatever the workload, so every
   per-layer time is measured on every workload.  They run after the
   workload, untraced, and each reports a median of a few calls. *)

open Sf_mesh
open Sf_hpgmg
open Snowflake
open Common
module Jit = Sf_backends.Jit
module Config = Sf_backends.Config
module Kernel = Sf_backends.Kernel
module Costing = Sf_backends.Costing
module P = Sf_serve.Protocol
module Gen = Sf_fuzz.Gen
module Corpus = Sf_fuzz.Corpus
module Guard = Sf_resilience.Guard
module Mix = Perfbench.Mix

let median_time ?(warmup = 1) ~reps f =
  for _ = 1 to warmup do f () done;
  Stats.median (Array.init reps (fun _ -> snd (Pstats.timed f)))

(* Kernel layer on the sweeps level: DSL openmp, simulated OpenCL and
   hand kernels per operator, time tiling, fusion and two workers. *)
let kernels (o : opts) =
  let n = Sweeps_wl.size o in
  let level = Sweeps_wl.prepared ~seed:o.seed ~n in
  let shape = level.Level.shape and params = Level.params level in
  let stencils = float_of_int (n * n * n) in
  let bw = Lazy.force stream_gbs in
  let time ?(config = Sweeps_wl.plain) ?(backend = Jit.Openmp) group =
    let k = Jit.compile ~config backend ~shape group in
    median_time ~reps:3 (fun () -> k.Kernel.run ~params level.Level.grids)
  in
  let ns t = t /. stencils *. 1e9 in
  let per_op =
    List.concat_map
      (fun (op : Sweeps_wl.op) ->
        let name = op.Sweeps_wl.name and group = op.Sweeps_wl.group in
        let t = time group in
        let t_ocl = time ~backend:Jit.Opencl group in
        let t_hand = median_time ~reps:3 (fun () -> op.Sweeps_wl.hand level) in
        let roofline = bw *. 1e9 /. op.Sweeps_wl.bytes in
        info "kernel %s: %.2f ns/stencil (openmp), %.2f (opencl), %.2f (hand); %.1f%% of the %.0f M/s roofline (computed %.0f B/stencil)"
          name (ns t) (ns t_ocl) (ns t_hand) (100. *. stencils /. t /. roofline)
          (roofline /. 1e6) op.Sweeps_wl.bytes;
        [
          m (Printf.sprintf "kernel.%s.ns_per_stencil" name) "ns" (ns t);
          m (Printf.sprintf "kernel.%s.roofline_frac" name) "frac" (stencils /. t /. roofline);
          m (Printf.sprintf "kernel.%s.hand_ns_per_stencil" name) "ns" (ns t_hand);
          m (Printf.sprintf "kernel.%s.opencl_ns_per_stencil" name) "ns" (ns t_ocl);
        ])
      (List.filter (fun (op : Sweeps_wl.op) -> op.Sweeps_wl.apps = 1) Sweeps_wl.ops)
  in
  let gsrb = Operators.gsrb_smooth in
  let t_plain = time gsrb in
  let t_tiled =
    let tiled = List.find (fun (op : Sweeps_wl.op) -> op.Sweeps_wl.apps = 4) Sweeps_wl.ops in
    let k = Sweeps_wl.compile tiled ~shape in
    median_time ~reps:3 (fun () -> k.Kernel.run ~params level.Level.grids)
  in
  let bytes_plain = 4 * (Costing.of_group ~shape gsrb).Costing.bytes in
  let bytes_tiled = (Costing.of_timetile ~shape ~reps:4 gsrb).Costing.bytes in
  let t_fused = time ~config:{ Sweeps_wl.plain with Config.fusion = true } gsrb in
  let k1 = Jit.compile ~config:Sweeps_wl.plain Jit.Openmp ~shape gsrb in
  let k2 = Jit.compile ~config:(Config.with_workers 2 Sweeps_wl.plain) Jit.Openmp ~shape gsrb in
  let run k () = k.Kernel.run ~params level.Level.grids in
  run k2 ();
  (* alternate the two so drift hits both alike *)
  let pairs = Array.init 7 (fun _ -> (snd (Pstats.timed (run k1)), snd (Pstats.timed (run k2)))) in
  let w1 = Array.map fst pairs and w2 = Array.map snd pairs in
  info "ttile: 4 plain GSRB %.4f s vs time-tiled %.4f s; computed bytes %d vs %d"
    (4. *. t_plain) t_tiled bytes_plain bytes_tiled;
  info "pool: GSRB %d^3 1 worker p50 %.4f s, 2 workers p50 %.4f s (IQR/median %.2f; not gated)"
    n (Stats.median w1) (Stats.median w2) (Pstats.iqr_frac w2);
  per_op
  @ [
      m "ttile.gsrb4_over_plain" "ratio" (4. *. t_plain /. t_tiled);
      m "ttile.computed_bytes_ratio" "ratio" (float_of_int bytes_plain /. float_of_int bytes_tiled);
      m "fusion.gsrb_fused_over_unfused" "ratio" (t_plain /. t_fused);
      m "pool.w2_speedup" "ratio" (Stats.median w1 /. Stats.median w2);
      m "pool.w2_iqr_frac" "frac" (Pstats.iqr_frac w2);
    ]

(* One GSRB call on the 4³ level: per-call overhead with no cell work to
   hide it. *)
let small_call () =
  let level = Level.create ~n:4 in
  let k = Jit.compile ~config:Sweeps_wl.plain Jit.Openmp ~shape:level.Level.shape Operators.gsrb_smooth in
  let t =
    median_time ~warmup:10 ~reps:400 (fun () ->
        k.Kernel.run ~params:(Level.params level) level.Level.grids)
  in
  m "kernel.call_us_small" "us" (t *. 1e6)

let compile_miss () =
  let shape = Sf_util.Ivec.make 3 66 in
  let t =
    median_time ~warmup:0 ~reps:5 (fun () ->
        Jit.clear_cache ();
        ignore (Jit.compile ~config:Sweeps_wl.plain Jit.Openmp ~shape Operators.gsrb_smooth))
  in
  m "jit.compile_miss_ms" "ms" (t *. 1e3)

(* Wave scheduling of the 64³ hierarchy's groups (fine and coarse
   shapes). *)
let analysis () =
  let fine = Sf_util.Ivec.make 3 66 and coarse = Sf_util.Ivec.make 3 34 in
  let groups =
    [
      (fine, Operators.gsrb_smooth);
      (fine, Operators.jacobi_smooth);
      (fine, Mix.cc7_group);
      (fine, Group.make ~label:"residual" (Operators.boundaries ~grid:"u" @ [ Operators.residual_vc ]));
      (coarse, Group.make ~label:"restrict" [ Operators.restriction ]);
      (coarse, Group.make ~label:"interp_pc" Operators.interpolation);
    ]
  in
  let waves () =
    List.map (fun (shape, g) -> (g, List.length (Sf_analysis.Schedule.greedy_waves ~shape g))) groups
  in
  let counts = waves () in
  info "analysis: waves %s"
    (String.concat ", "
       (List.map (fun (g, w) -> Printf.sprintf "%s=%d" g.Group.label w) counts));
  let t = median_time ~reps:5 (fun () -> ignore (waves ())) in
  [
    m "analysis.ms" "ms" (t *. 1e3);
    m "analysis.waves" "count" (float_of_int (List.fold_left (fun a (_, w) -> a + w) 0 counts));
  ]

let hand_vcycle (o : opts) =
  let n = Solve_wl.size o in
  let hand = Baseline.create ~n () in
  Baseline.set_beta hand Problem.beta_smooth;
  Problem.setup_variable ~seed:o.seed (Baseline.finest hand);
  Baseline.set_beta hand Problem.beta_smooth;
  let t = median_time ~reps:15 (fun () -> Baseline.vcycle hand) in
  m "hand.vcycle_ms_p50" "ms" (t *. 1e3)

(* Protocol, corpus parsing, grid build and guard scan on the hot set's
   result-sized replies. *)
let serving () =
  let hot = Lazy.force Mix.hot_set in
  let reply (p : Mix.program) =
    let grids = Gen.build_grids p.Mix.spec in
    let payload =
      List.map
        (fun name ->
          let fa = Mesh.data (Grids.find grids name) in
          { P.gname = name;
            gshape = Sf_util.Ivec.to_list (Mesh.shape (Grids.find grids name));
            gdata = Array.init (Float.Array.length fa) (Float.Array.get fa) })
        (List.sort String.compare (Grids.names grids))
    in
    P.Result { ticket = 1; elapsed_us = 0.; grids = payload }
  in
  let sizes = Array.map (fun p -> float_of_int (String.length (P.encode_reply (reply p))) /. 1e6) hot in
  let big = Mix.hot "gsrb32_r1" in
  let r = reply big in
  let frame = P.encode_reply r in
  let mb = float_of_int (String.length frame) /. 1e6 in
  let t_enc = median_time ~reps:10 (fun () -> ignore (P.encode_reply r)) in
  let t_dec = median_time ~reps:10 (fun () -> ignore (P.decode_reply frame)) in
  let texts = Array.map (fun p -> (p.Mix.name, Corpus.to_string p.Mix.spec)) hot in
  let t_parse =
    median_time ~reps:(5 * Array.length texts)
      (let i = ref 0 in
       fun () ->
         let name, text = texts.(!i mod Array.length texts) in
         incr i;
         ignore (Corpus.of_string ~label:name text))
  in
  let grids = Gen.build_grids big.Mix.spec in
  let t_build = median_time ~reps:10 (fun () -> ignore (Gen.build_grids big.Mix.spec)) in
  let t_scan =
    median_time ~reps:50 (fun () -> Guard.scan_grids ~mode:Guard.Sample grids (Grids.names grids))
  in
  [
    m "protocol.encode_ms_per_mb" "ms/MB" (t_enc *. 1e3 /. mb);
    m "protocol.decode_ms_per_mb" "ms/MB" (t_dec *. 1e3 /. mb);
    m "protocol.reply_mb_p50" "MB" (Stats.median sizes);
    m "fuzz.parse_us" "us" (t_parse *. 1e6);
    m "fuzz.build_grids_ms" "ms" (t_build *. 1e3);
    m "guard.scan_ms" "ms" (t_scan *. 1e3);
  ]

let run (o : opts) =
  (m "roofline.stream_gbs" "GB/s" (Lazy.force stream_gbs) :: kernels o)
  @ [ small_call (); compile_miss () ]
  @ analysis ()
  @ [ hand_vcycle o ]
  @ serving ()
