(* The native tier: gcc-compiled kernels are bitwise equal to the row
   evaluator on every HPGMG operator, the emitted C is warning-free, and
   the on-disk cache survives truncated files, concurrent builds and
   process exit.  Where gcc cannot run (not installed, or the
   native-compile fault armed) each check prints a "native: skipped"
   line and passes. *)

open Sf_util
open Sf_mesh
open Snowflake
open Sf_backends
module Operators = Sf_hpgmg.Operators

let iv = Ivec.of_list
let params = function "inv_h2" -> 256. | p -> Alcotest.failf "param %s" p

(* Random contents for every grid [s] touches. *)
let random_grids ~shape_of (s : Stencil.t) =
  Grids.of_list
    (List.mapi
       (fun i g -> (g, Mesh.random ~seed:(31 + i) (shape_of g)))
       (Stencil.grids s))

let run ~prepare ~shape grids (s : Stencil.t) =
  Exec.validate_stencil grids ~shape s;
  let instantiate = prepare grids ~params s in
  List.iter (fun rect -> instantiate rect ()) (Domain.resolve ~shape s.Stencil.domain)

type case = { name : string; stencil : Stencil.t; shape : Ivec.t; shape_of : string -> Ivec.t }

let cases =
  let fine = iv [ 18; 18; 18 ] and coarse = iv [ 10; 10; 10 ] in
  let at_fine name stencil = { name; stencil; shape = fine; shape_of = (fun _ -> fine) } in
  let line = iv [ 40 ] in
  [
    at_fine "gsrb red" (Operators.gsrb_color ~color:0);
    at_fine "gsrb black" (Operators.gsrb_color ~color:1);
    at_fine "jacobi" (Operators.jacobi_cc ~out:"tmp" ~input:"u");
    at_fine "cc 7-pt" (Operators.laplacian_7pt ~out:"res" ~input:"u");
    at_fine "vc residual" Operators.residual_vc;
    {
      name = "restriction";
      stencil = Operators.restriction;
      shape = coarse;
      shape_of = (function "fine_res" -> fine | _ -> coarse);
    };
  ]
  @ List.mapi
      (fun i s ->
        {
          name = Printf.sprintf "interpolation %d" i;
          stencil = s;
          shape = coarse;
          shape_of = (function "fine_u" -> fine | _ -> coarse);
        })
      Operators.interpolation
  @ List.mapi
      (fun i s -> at_fine (Printf.sprintf "boundary face %d" i) s)
      (Operators.boundaries ~grid:"u")
  @ [
      (* in-place lexicographic Gauss-Seidel: u[i] reads u[i-1], written
         one cell earlier *)
      {
        name = "lexicographic 1-D";
        stencil =
          Stencil.make ~label:"lex" ~output:"u"
            ~expr:
              Expr.(
                (const 0.5 *: read "u" (iv [ -1 ]))
                +: (const 0.25 *: read "u" (iv [ 1 ]))
                +: const 1.)
            ~domain:(Domain.interior 1 ~ghost:1)
            ();
        shape = line;
        shape_of = (fun _ -> line);
      };
    ]

let bits_equal a b =
  Float.Array.length a = Float.Array.length b
  &&
  let ok = ref true in
  Float.Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float (Float.Array.get b i) then ok := false)
    a;
  !ok

(* Build every registered structure; [false] (after printing the skip
   line) when this host cannot. *)
let build_or_skip () =
  match Native.compile_pending () with
  | Ok _ -> true
  | Error f -> (
      match Native.skipped f with
      | Some line ->
          print_endline line;
          false
      | None -> Alcotest.failf "native build: %s" (Native.failure_to_string f))

let test_bitwise_hpgmg () =
  let row =
    List.map
      (fun c ->
        let g = random_grids ~shape_of:c.shape_of c.stencil in
        run ~prepare:Exec.prepare_row ~shape:c.shape g c.stencil;
        g)
      cases
  in
  if build_or_skip () then
    List.iter2
      (fun c expect ->
        let got = random_grids ~shape_of:c.shape_of c.stencil in
        let before = (Native.stats ()).Native.native_cells in
        run ~prepare:Exec.prepare_compiled ~shape:c.shape got c.stencil;
        let cells =
          Domain.npoints_union (Domain.resolve ~shape:c.shape c.stencil.Stencil.domain)
        in
        Alcotest.(check int)
          (c.name ^ ": cells run natively")
          cells
          ((Native.stats ()).Native.native_cells - before);
        List.iter
          (fun g ->
            if not (bits_equal (Mesh.data (Grids.find expect g)) (Mesh.data (Grids.find got g)))
            then Alcotest.failf "%s: grid %s differs from the row evaluator" c.name g)
          (Grids.names expect))
      cases row

let test_tile_switches_tier () =
  (* a tile instantiated before its structure is built runs natively on
     its next run, with no re-preparation *)
  let shape = iv [ 12; 12 ] in
  let s =
    Stencil.make ~label:"switch" ~output:"v"
      ~expr:
        Expr.(
          (read "u" (iv [ 0; 1 ]) *: read "u" (iv [ 1; 0 ]) *: const 0.125)
          +: (const 3. *: read "u" (iv [ -1; -1 ])))
      ~domain:(Domain.interior 2 ~ghost:1)
      ()
  in
  let shape_of _ = shape in
  let grids = random_grids ~shape_of s in
  let v = Mesh.data (Grids.find grids "v") in
  let initial = Float.Array.copy v in
  let thunks =
    List.map (Exec.prepare_compiled grids ~params s) (Domain.resolve ~shape s.Stencil.domain)
  in
  List.iter (fun t -> t ()) thunks;
  let expect = Float.Array.copy v in
  Float.Array.blit initial 0 v 0 (Float.Array.length v);
  if build_or_skip () then begin
    let before = (Native.stats ()).Native.native_cells in
    List.iter (fun t -> t ()) thunks;
    Alcotest.(check bool) "ran natively" true ((Native.stats ()).Native.native_cells > before);
    Alcotest.(check bool) "bitwise equal" true (bits_equal expect v)
  end

let test_observability () =
  (* native cells reach the trace counters and the one-line summaries *)
  let shape = iv [ 10; 10 ] in
  let s =
    Stencil.make ~label:"observed" ~output:"v"
      ~expr:Expr.((const 0.5 *: read "u" (iv [ 0; 1 ])) -: read "u" (iv [ 1; 0 ]))
      ~domain:(Domain.interior 2 ~ghost:1)
      ()
  in
  let grids = random_grids ~shape_of:(fun _ -> shape) s in
  run ~prepare:Exec.prepare_row ~shape grids s;
  if build_or_skip () then
    Sf_trace.Trace.with_enabled true (fun () ->
        Sf_trace.Trace.clear ();
        run ~prepare:Exec.prepare_compiled ~shape grids s;
        Alcotest.(check int) "native_cells counter" 64
          (Sf_trace.Trace.counters ()).Sf_trace.Trace.native_cells;
        let has sub line =
          let n = String.length sub in
          let rec at i = i + n <= String.length line && (String.sub line i n = sub || at (i + 1)) in
          at 0
        in
        Alcotest.(check bool) "counters line" true
          (has "; native 64 cell(s)" (Sf_trace.Report.counters_line ()));
        Alcotest.(check bool) "describe" true (has "structure(s) native" (Native.describe ()));
        Sf_trace.Trace.clear ())

(* Every case's C through gcc -Wall -Wextra -Werror, in one call. *)
let test_warning_free () =
  let sources =
    List.filter_map
      (fun c ->
        Option.map
          (fun p -> Native.emit_source c.stencil (Polyform.factorize p))
          (Polyform.of_expr ~params c.stencil.Stencil.expr))
      cases
  in
  Alcotest.(check int) "every case is polynomial" (List.length cases) (List.length sources);
  let sources = List.sort_uniq String.compare sources in
  let src = Filename.temp_file "sf_native" ".c" in
  Out_channel.with_open_bin src (fun oc ->
      output_string oc (Native.translation_unit sources));
  let argv =
    Array.of_list
      ([ "gcc"; "-Wall"; "-Wextra"; "-Werror" ] @ Native.flags @ [ "-o"; "/dev/null"; src ])
  in
  match Unix.create_process "gcc" argv Unix.stdin Unix.stdout Unix.stderr with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
      Sys.remove src;
      print_endline "native: skipped (no gcc)"
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> Sys.remove src
      | _ -> Alcotest.failf "gcc -Wall -Wextra -Werror rejected %s" src)

(* ------------------------------------------------ the on-disk cache *)

let sibling exe = Filename.concat (Filename.dirname Sys.executable_name) exe
let cache_of tmp = Filename.concat tmp (Printf.sprintf "snowflake-native-%d" (Unix.getuid ()))

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* [f] with a fresh directory, removed afterwards. *)
let with_tmp f =
  let tmp = Filename.temp_dir "sf_native" "" in
  Fun.protect ~finally:(fun () -> remove_tree tmp) (fun () -> f tmp)

(* Start native_probe with [tmp] as TMPDIR (and [path] as PATH). *)
let start_probe ?path ~tmp args =
  let out = Filename.temp_file ~temp_dir:tmp "probe" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let keep e =
    not
      (String.starts_with ~prefix:"TMPDIR=" e
      || (path <> None && String.starts_with ~prefix:"PATH=" e))
  in
  let env =
    Array.of_list
      ((("TMPDIR=" ^ tmp) :: (match path with Some p -> [ "PATH=" ^ p ] | None -> []))
      @ List.filter keep (Array.to_list (Unix.environment ())))
  in
  let exe = sibling "native_probe.exe" in
  let pid = Unix.create_process_env exe (Array.of_list (exe :: args)) env Unix.stdin fd Unix.stderr in
  Unix.close fd;
  (pid, out, Unix.gettimeofday ())

(* Exit code, first output line and wall seconds; killed after 60 s. *)
let finish (pid, out, t0) =
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () -. t0 > 60. then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          Alcotest.fail "native_probe hung"
        end;
        Unix.sleepf 0.01;
        reap ()
    | _, Unix.WEXITED n -> n
    | _, _ -> Alcotest.fail "native_probe killed by a signal"
  in
  let code = reap () in
  let line =
    In_channel.with_open_bin out In_channel.input_line |> Option.value ~default:""
  in
  (code, line, Unix.gettimeofday () -. t0)

let probe ?path ~tmp args = finish (start_probe ?path ~tmp args)

(* The cache holds only published files, each carrying its own digest. *)
let check_cache tmp =
  let dir = cache_of tmp in
  Array.iter
    (fun f ->
      let path = Filename.concat dir f in
      if not (Filename.check_suffix f ".so") then Alcotest.failf "left behind: %s" path;
      let s = In_channel.with_open_bin path In_channel.input_all in
      let n = String.length s - 16 in
      if n <= 0 || Digest.string (String.sub s 0 n) <> String.sub s n 16 then
        Alcotest.failf "unverifiable file %s" path)
    (try Sys.readdir dir with Sys_error _ -> [||])

(* Runs [f tmp] in a fresh cache when this host can build at all. *)
let with_cache f =
  with_tmp @@ fun tmp ->
  match probe ~tmp [ "build" ] with
  | 0, "built", _ -> f tmp
  | 3, line, _ -> print_endline line
  | code, line, _ -> Alcotest.failf "native_probe build: exit %d: %s" code line

let expect_probe ~tmp want =
  match probe ~tmp [ "build" ] with
  | 0, got, _ -> Alcotest.(check string) "probe" want got
  | code, line, _ -> Alcotest.failf "native_probe build: exit %d: %s" code line

let test_cache_rejects_damaged () =
  with_cache (fun tmp ->
      expect_probe ~tmp "disk";
      let so =
        match Array.to_list (Sys.readdir (cache_of tmp)) with
        | [ f ] -> Filename.concat (cache_of tmp) f
        | l -> Alcotest.failf "%d cache files" (List.length l)
      in
      let whole = In_channel.with_open_bin so In_channel.input_all in
      (* truncated: rejected and rebuilt, never loaded *)
      Out_channel.with_open_bin so (fun oc ->
          output_string oc (String.sub whole 0 (String.length whole / 2)));
      expect_probe ~tmp "built";
      (* a foreign file: a valid shared object without our digest *)
      Out_channel.with_open_bin so (fun oc ->
          output_string oc (String.sub whole 0 (String.length whole - 16)));
      expect_probe ~tmp "built";
      expect_probe ~tmp "disk";
      check_cache tmp)

let test_concurrent_builds () =
  with_tmp @@ fun tmp ->
  let a = start_probe ~tmp [ "build" ] and b = start_probe ~tmp [ "build" ] in
  let results = [ finish a; finish b ] in
  if List.exists (fun (code, _, _) -> code = 3) results then
    let _, line, _ = List.find (fun (code, _, _) -> code = 3) results in
    print_endline line
  else begin
    List.iter
      (fun (code, line, _) ->
        if code <> 0 || not (List.mem line [ "built"; "disk" ]) then
          Alcotest.failf "concurrent build: exit %d: %s" code line)
      results;
    Alcotest.(check int) "one published file" 1 (Array.length (Sys.readdir (cache_of tmp)));
    check_cache tmp
  end

let test_exit_while_building () =
  with_tmp @@ fun tmp ->
  match probe ~tmp [ "exit-building" ] with
  | 3, line, _ -> print_endline ("native: skipped (" ^ line ^ ")")
  | 0, ("exiting" | "finished"), secs ->
      Alcotest.(check bool) (Printf.sprintf "exited in %.1f s" secs) true (secs < 30.);
      check_cache tmp
  | code, line, _ -> Alcotest.failf "exit-building: exit %d: %s" code line

let test_no_gcc () =
  with_tmp @@ fun tmp ->
  let empty = Filename.concat tmp "empty" in
  Sys.mkdir empty 0o700;
  match probe ~path:empty ~tmp [ "build" ] with
  | 3, line, _ -> Alcotest.(check string) "skip line" "native: skipped (no gcc)" line
  | code, line, _ -> Alcotest.failf "without gcc: exit %d: %s" code line

let test_compile_timeout () =
  (* a gcc that hangs: killed at the timeout, its files removed *)
  with_tmp @@ fun tmp ->
  let bin = Filename.concat tmp "bin" in
  Sys.mkdir bin 0o700;
  let pidfile = Filename.concat bin "pid" in
  let gcc = Filename.concat bin "gcc" in
  let sleep =
    String.split_on_char ':' (Option.value ~default:"/bin" (Sys.getenv_opt "PATH"))
    |> List.map (fun d -> Filename.concat d "sleep")
    |> List.find_opt Sys.file_exists
    |> Option.value ~default:"/bin/sleep"
  in
  Out_channel.with_open_bin gcc (fun oc ->
      Printf.fprintf oc
        "#!/bin/sh\n\
         if [ \"$1\" = --version ]; then echo 'hanging gcc 0'; exit 0; fi\n\
         echo $$ > %s\n\
         exec %s 30\n"
        pidfile sleep);
  Unix.chmod gcc 0o755;
  match probe ~path:bin ~tmp [ "build"; "0.5" ] with
  | 3, "native: skipped (compile timeout)", secs ->
      Alcotest.(check bool) (Printf.sprintf "gave up in %.1f s" secs) true (secs < 20.);
      let pid =
        int_of_string (String.trim (In_channel.with_open_bin pidfile In_channel.input_all))
      in
      Alcotest.(check bool) "hanging gcc killed" true
        (match Unix.kill pid 0 with
        | () -> false
        | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true);
      check_cache tmp
  | 3, line, _ when not (Sys.file_exists pidfile) ->
      (* gcc never started: the native-compile fault is armed *)
      print_endline line
  | code, line, _ -> Alcotest.failf "hanging gcc: exit %d: %s" code line

let () =
  Alcotest.run "native"
    [
      ( "native",
        [
          Alcotest.test_case "bitwise = row evaluator (HPGMG)" `Quick test_bitwise_hpgmg;
          Alcotest.test_case "tile switches tier" `Quick test_tile_switches_tier;
          Alcotest.test_case "counters and summaries" `Quick test_observability;
          Alcotest.test_case "-Wall -Wextra -Werror" `Quick test_warning_free;
        ] );
      ( "cache",
        [
          Alcotest.test_case "damaged files rebuilt" `Quick test_cache_rejects_damaged;
          Alcotest.test_case "two processes, one key" `Quick test_concurrent_builds;
          Alcotest.test_case "exit while building" `Quick test_exit_while_building;
          Alcotest.test_case "no gcc" `Quick test_no_gcc;
          Alcotest.test_case "compile timeout" `Quick test_compile_timeout;
        ] );
    ]
