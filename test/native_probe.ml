(* Subprocess probe for the native tier's on-disk cache, driven by
   test_native with TMPDIR pointing at a scratch cache directory.

   native_probe build [TIMEOUT]
     build one fixed 2-D structure synchronously, then check the native
     run against the row evaluator bit for bit.  Prints "built" or "disk"
     (exit 0), the skip line (exit 3), the build failure (exit 2) or the
     mismatch (exit 1).

   native_probe exit-building
     cross the promotion threshold with a 1-D stencil, wait until its
     background gcc is running, print "exiting" and exit at once (exit 0;
     "finished" when the build won the race). *)

open Sf_util
open Sf_mesh
open Snowflake
open Sf_backends

let iv = Ivec.of_list

let run ~prepare ~shape grids (s : Stencil.t) =
  let instantiate = prepare grids ~params:(fun _ -> 0.5) s in
  List.iter (fun rect -> instantiate rect ()) (Domain.resolve ~shape s.Stencil.domain)

let build timeout =
  let shape = iv [ 20; 24 ] in
  let s =
    Stencil.make ~label:"probe" ~output:"v"
      ~expr:
        Expr.(
          (param "a" *: read "u" (iv [ 0; 1 ]) *: read "w" (iv [ 1; 0 ]))
          +: (const 2. *: read "u" (iv [ -1; 0 ]))
          -: read "w" (iv [ 0; -1 ]))
      ~domain:(Domain.interior 2 ~ghost:1)
      ()
  in
  let grids () =
    Grids.of_list
      [
        ("u", Mesh.random ~seed:1 shape);
        ("w", Mesh.random ~seed:2 shape);
        ("v", Mesh.random ~seed:3 shape);
      ]
  in
  let row = grids () and native = grids () in
  run ~prepare:Exec.prepare_row ~shape row s;
  match Native.compile_pending ?timeout () with
  | Error f -> (
      match Native.skipped f with
      | Some line ->
          print_endline line;
          exit 3
      | None ->
          print_endline (Native.failure_to_string f);
          exit 2)
  | Ok origin ->
      run ~prepare:Exec.prepare_compiled ~shape native s;
      let bits m = Float.Array.map_to_array Int64.bits_of_float (Mesh.data m) in
      if bits (Grids.find row "v") <> bits (Grids.find native "v") then begin
        print_endline "native differs from the row evaluator";
        exit 1
      end;
      print_endline (match origin with Native.Disk -> "disk" | Native.Built -> "built");
      exit 0

let exit_building () =
  let n = 1 lsl 18 in
  let shape = iv [ n + 40 ] in
  (* forty quadratic taps: a build that takes gcc a moment *)
  let expr =
    List.fold_left
      (fun acc k ->
        Expr.(acc +: (const (float_of_int k) *: read "u" (iv [ k ]) *: read "u" (iv [ k + 1 ]))))
      (Expr.const 1.)
      (List.init 39 (fun k -> k - 19))
  in
  let s =
    Stencil.make ~label:"exit" ~output:"v" ~expr ~domain:(Domain.interior 1 ~ghost:20) ()
  in
  let grids = Grids.of_list [ ("u", Mesh.random ~seed:1 shape); ("v", Mesh.create shape) ] in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "snowflake-native-%d" (Unix.getuid ()))
  in
  let mine = Printf.sprintf "job-%d-" (Unix.getpid ()) in
  let compiling () =
    Array.exists
      (fun f ->
        String.starts_with ~prefix:mine f
        && Sys.file_exists (Filename.concat (Filename.concat root f) "k.c"))
      (try Sys.readdir root with Sys_error _ -> [||])
  in
  let deadline = Unix.gettimeofday () +. 20. in
  let rec go () =
    run ~prepare:Exec.prepare_compiled ~shape grids s;
    if compiling () then begin
      print_endline "exiting";
      exit 0
    end
    else if (Native.stats ()).Native.native_structures > 0 then begin
      print_endline "finished";
      exit 0
    end
    else if (Native.stats ()).Native.failures > 0 then begin
      print_endline (Option.value ~default:"" (Native.stats ()).Native.fallback);
      exit 3
    end
    else if Unix.gettimeofday () > deadline then exit 4
    else go ()
  in
  go ()

let () =
  match Array.to_list Sys.argv with
  | [ _; "build" ] -> build None
  | [ _; "build"; t ] -> build (Some (float_of_string t))
  | [ _; "exit-building" ] -> exit_building ()
  | _ ->
      prerr_endline "usage: native_probe build [TIMEOUT] | exit-building";
      exit 2
