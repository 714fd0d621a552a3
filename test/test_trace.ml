(* Tests for the sf_trace substrate: span nesting and attribution across
   all four backends, counter exactness against the analytic domain size,
   the disabled-mode zero-overhead contract, and the Chrome trace_event
   JSON export. *)

open Sf_util
open Sf_mesh
open Snowflake
open Sf_backends
open Sf_trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let iv = Ivec.of_list

(* a 2-stencil red/black in-place group with a per-test unique label, so
   events are attributable even though the jit cache is shared *)
let two_stencil_group label =
  let w =
    Weights.of_nested
      (Weights.A
         [
           A [ W 0.; W 0.25; W 0. ];
           A [ W 0.25; W 0.; W 0.25 ];
           A [ W 0.; W 0.25; W 0. ];
         ])
  in
  let mk color =
    Stencil.make
      ~label:(Printf.sprintf "%s_c%d" label color)
      ~output:"mesh"
      ~expr:(Component.to_expr ~grid:"mesh" w)
      ~domain:(Domain.colored 2 ~ghost:1 ~color ~ncolors:2)
      ()
  in
  Group.make ~label [ mk 0; mk 1 ]

let group_cells ~shape group =
  List.fold_left
    (fun acc s ->
      acc + Domain.npoints_union (Domain.resolve ~shape s.Stencil.domain))
    0 (Group.stencils group)

let mk_grids shape = Grids.of_list [ ("mesh", Mesh.random ~seed:7 shape) ]

let arg_str key args =
  match List.assoc_opt key args with
  | Some (Trace.Str s) -> Some s
  | _ -> None

let arg_int key args =
  match List.assoc_opt key args with
  | Some (Trace.Int i) -> Some i
  | _ -> None

let backends =
  [
    (Jit.Interp, Config.default);
    (Jit.Compiled, Config.default);
    (Jit.Openmp, Config.with_workers 2 Config.default);
    (Jit.Opencl, Config.default);
  ]

(* ------------------------------------------------- nesting/attribution *)

let test_span_nesting_all_backends () =
  Jit.clear_cache ();
  let shape = iv [ 12; 12 ] in
  List.iter
    (fun (backend, config) ->
      let bname = Jit.backend_name backend in
      let label = "trace2_" ^ bname in
      let group = two_stencil_group label in
      Trace.with_enabled true (fun () ->
          Trace.clear ();
          let kernel = Jit.compile ~config backend ~shape group in
          kernel.Kernel.run (mk_grids shape);
          let events = Trace.events () in
          let kernels =
            List.filter
              (fun e -> e.Trace.kind = Trace.Kernel && e.Trace.name = label)
              events
          in
          check_int (bname ^ ": one kernel span") 1 (List.length kernels);
          let k = List.hd kernels in
          Alcotest.(check (option string))
            (bname ^ ": backend attributed")
            (Some bname)
            (arg_str "backend" k.Trace.args);
          Alcotest.(check (option string))
            (bname ^ ": group attributed")
            (Some label)
            (arg_str "group" k.Trace.args);
          check_bool
            (bname ^ ": cells/flops/bytes annotated")
            true
            (List.for_all
               (fun key -> arg_int key k.Trace.args <> None)
               [ "cells"; "flops"; "bytes" ]);
          (* two stencils, sequential semantics or colored waves: every
             wave span of this group nests inside the kernel span *)
          let waves =
            List.filter
              (fun e ->
                e.Trace.kind = Trace.Wave
                && arg_str "group" e.Trace.args = Some label)
              events
          in
          check_int (bname ^ ": one wave per stencil") 2 (List.length waves);
          let k_end = k.Trace.ts_us +. k.Trace.dur_us in
          List.iter
            (fun w ->
              check_bool
                (bname ^ ": wave nested in kernel")
                true
                (w.Trace.ts_us >= k.Trace.ts_us -. 1.0
                && w.Trace.ts_us +. w.Trace.dur_us <= k_end +. 1.0))
            waves))
    backends

let test_compile_span_and_cache_counters () =
  Jit.clear_cache ();
  let shape = iv [ 10; 10 ] in
  let group = two_stencil_group "trace_cachectr" in
  Trace.with_enabled true (fun () ->
      Trace.clear ();
      ignore (Jit.compile Jit.Compiled ~shape group);
      let c = Trace.counters () in
      check_int "first compile is a miss" 1 c.Trace.cache_misses;
      check_bool "compile span recorded" true
        (List.exists
           (fun e ->
             e.Trace.kind = Trace.Compile
             && e.Trace.name = "compile:trace_cachectr")
           (Trace.events ()));
      ignore (Jit.compile Jit.Compiled ~shape group);
      let c = Trace.counters () in
      check_int "second compile hits" 1 c.Trace.cache_hits;
      check_int "still one miss" 1 c.Trace.cache_misses)

(* ---------------------------------------------------- counter exactness *)

let test_cells_updated_exact () =
  Jit.clear_cache ();
  let shape = iv [ 14; 11 ] in
  List.iter
    (fun (backend, config) ->
      let bname = Jit.backend_name backend in
      let label = "trace_cells_" ^ bname in
      let group = two_stencil_group label in
      let expected = group_cells ~shape group in
      Trace.with_enabled true (fun () ->
          Trace.clear ();
          let kernel = Jit.compile ~config backend ~shape group in
          let grids = mk_grids shape in
          kernel.Kernel.run grids;
          check_int
            (bname ^ ": cells = domain size")
            expected
            (Trace.counters ()).Trace.cells_updated;
          kernel.Kernel.run grids;
          check_int
            (bname ^ ": cells accumulate per run")
            (2 * expected)
            (Trace.counters ()).Trace.cells_updated))
    backends

let test_pool_counters_mirrored () =
  Jit.clear_cache ();
  let shape = iv [ 48; 48 ] in
  let group = two_stencil_group "trace_poolctr" in
  let config =
    { (Config.with_workers 3 Config.default) with Config.serial_cutoff = 1 }
  in
  Trace.with_enabled true (fun () ->
      Trace.clear ();
      let kernel = Jit.compile ~config Jit.Openmp ~shape group in
      kernel.Kernel.run (mk_grids shape);
      let c = Trace.counters () in
      check_bool "chunks dispatched mirrored" true (c.Trace.chunks_dispatched > 0);
      check_bool "chunk spans recorded" true
        (List.exists (fun e -> e.Trace.kind = Trace.Chunk) (Trace.events ())));
  (* inline fallbacks mirror too: a below-cutoff wave *)
  Trace.with_enabled true (fun () ->
      Trace.clear ();
      let pool = Pool.create ~workers:4 |> Pool.with_serial_cutoff 1_000_000 in
      Pool.run_tasks ~points:10 pool [| (fun () -> ()); (fun () -> ()) |];
      check_bool "inline fallback mirrored" true
        ((Trace.counters ()).Trace.inline_fallbacks > 0))

(* ------------------------------------------------------ disabled mode *)

let test_disabled_records_nothing () =
  Jit.clear_cache ();
  let shape = iv [ 12; 12 ] in
  let group = two_stencil_group "trace_off" in
  Trace.with_enabled true (fun () -> Trace.clear ());
  Trace.with_enabled false (fun () ->
      let kernel =
        Jit.compile ~config:(Config.with_workers 2 Config.default) Jit.Openmp
          ~shape group
      in
      kernel.Kernel.run (mk_grids shape);
      Trace.add Trace.Cells_updated 42;
      Trace.record_span Trace.Phase "ghost" ~ts_us:0. ~dur_us:1.;
      ignore (Trace.span Trace.Phase "ghost2" (fun () -> 1)));
  Trace.with_enabled true (fun () ->
      check_int "no events recorded while off" 0
        (List.length (Trace.events ()));
      let c = Trace.counters () in
      check_int "no cells counted while off" 0 c.Trace.cells_updated;
      check_int "no dispatch counted while off" 0 c.Trace.chunks_dispatched)

let test_disabled_overhead_bound () =
  (* the hot-path guard is one atomic load and a branch: 50M iterations
     must complete in well under a second even on a loaded machine.  This
     is a generous absolute bound, not a flaky relative one — a guard
     that allocates args or takes a lock misses it by orders of
     magnitude. *)
  Trace.with_enabled false (fun () ->
      let t0 = Unix.gettimeofday () in
      let hits = ref 0 in
      for _ = 1 to 50_000_000 do
        if Trace.on () then incr hits
      done;
      let dt = Unix.gettimeofday () -. t0 in
      check_int "guard never fires" 0 !hits;
      check_bool
        (Printf.sprintf "50M disabled checks in %.3fs < 2s" dt)
        true (dt < 2.0))

(* ------------------------------------------------------- chrome export *)

let test_chrome_json_roundtrip () =
  Jit.clear_cache ();
  let shape = iv [ 12; 12 ] in
  let group = two_stencil_group "trace_chrome" in
  Trace.with_enabled true (fun () ->
      Trace.clear ();
      Trace.set_bandwidth_gbs 10.0;
      let kernel = Jit.compile Jit.Compiled ~shape group in
      kernel.Kernel.run (mk_grids shape);
      let doc = Trace.to_chrome_json () in
      (* parseable and exact through print/parse *)
      (match Json.of_string (Json.to_string doc) with
      | Ok j -> check_bool "round-trips exactly" true (Json.equal j doc)
      | Error e -> Alcotest.failf "chrome json does not reparse: %s" e);
      (* kernel spans carry the roofline join once bandwidth is known *)
      (match Json.member "traceEvents" doc with
      | Some (Json.Arr evs) ->
          check_bool "nonempty traceEvents" true (evs <> []);
          let kernel_evs =
            List.filter
              (fun e -> Json.member "cat" e = Some (Json.Str "kernel"))
              evs
          in
          check_bool "has kernel events" true (kernel_evs <> []);
          List.iter
            (fun e ->
              match Json.member "args" e with
              | Some args ->
                  check_bool "pct_roofline_peak annotated" true
                    (match Json.member "pct_roofline_peak" args with
                    | Some (Json.Num _) -> true
                    | _ -> false)
              | None -> Alcotest.fail "kernel event without args")
            kernel_evs
      | _ -> Alcotest.fail "no traceEvents array");
      Trace.set_bandwidth_gbs 0.;
      (* file export parses too *)
      let path = Filename.temp_file "sftrace" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Trace.write_chrome_json path;
          let ic = open_in_bin path in
          let text =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          match Json.of_string text with
          | Ok j -> check_bool "file equals document" true (Json.equal j doc)
          | Error e -> Alcotest.failf "exported file does not parse: %s" e))

(* summary aggregation feeds the report table *)
let test_summary_aggregates () =
  Jit.clear_cache ();
  let shape = iv [ 12; 12 ] in
  let group = two_stencil_group "trace_sum" in
  Trace.with_enabled true (fun () ->
      Trace.clear ();
      let kernel = Jit.compile Jit.Compiled ~shape group in
      let grids = mk_grids shape in
      kernel.Kernel.run grids;
      kernel.Kernel.run grids;
      match
        List.find_opt
          (fun a -> a.Trace.akind = Trace.Kernel && a.Trace.aname = "trace_sum")
          (Trace.summary ())
      with
      | None -> Alcotest.fail "kernel row missing from summary"
      | Some a ->
          check_int "two calls aggregated" 2 a.Trace.calls;
          check_bool "cells summed" true
            (int_of_float a.Trace.acells
            = 2 * group_cells ~shape group);
          check_bool "positive time" true (a.Trace.total_us > 0.))

let test_clear_zeroes_every_counter () =
  let all =
    Trace.
      [
        Cells_updated; Chunks_dispatched; Chunks_stolen; Inline_fallbacks;
        Cache_hits; Cache_misses; Faults_injected; Retries; Failovers;
        Rollbacks; Guard_trips; Tasks_skipped; Rank_recoveries; Tune_db_hits;
        Tune_db_misses; Channel_sends; Channel_stalls; Native_promotions;
        Native_disk_hits; Native_failures; Native_cells;
      ]
  in
  Trace.with_enabled true (fun () ->
      List.iter (fun c -> Trace.add c 7) all;
      let c = Trace.counters () in
      check_int "native cells counted" 7 c.Trace.native_cells;
      Trace.clear ();
      let c = Trace.counters () in
      check_bool "every counter is 0 after clear" true
        (c
        = {
            Trace.cells_updated = 0;
            chunks_dispatched = 0;
            chunks_stolen = 0;
            inline_fallbacks = 0;
            cache_hits = 0;
            cache_misses = 0;
            faults_injected = 0;
            retries = 0;
            failovers = 0;
            rollbacks = 0;
            guard_trips = 0;
            tasks_skipped = 0;
            rank_recoveries = 0;
            tune_db_hits = 0;
            tune_db_misses = 0;
            channel_sends = 0;
            channel_stalls = 0;
            native_promotions = 0;
            native_disk_hits = 0;
            native_failures = 0;
            native_cells = 0;
          }))

let () =
  Alcotest.run "sf_trace"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting + attribution (4 backends)" `Quick
            test_span_nesting_all_backends;
          Alcotest.test_case "compile span + cache counters" `Quick
            test_compile_span_and_cache_counters;
        ] );
      ( "counters",
        [
          Alcotest.test_case "cells = domain size" `Quick
            test_cells_updated_exact;
          Alcotest.test_case "pool counters mirrored" `Quick
            test_pool_counters_mirrored;
          Alcotest.test_case "clear zeroes every counter" `Quick
            test_clear_zeroes_every_counter;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "overhead bound" `Quick
            test_disabled_overhead_bound;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome json round-trip" `Quick
            test_chrome_json_roundtrip;
          Alcotest.test_case "summary aggregates" `Quick
            test_summary_aggregates;
        ] );
    ]
