(* @serve: end-to-end check against a live sfserved daemon.

   Spawns the real binary on a temp Unix socket, then:
     1. two tenants concurrently replay every corpus/*.sfl program and
        check each RESULT against the interpreter oracle (Fcmp
        tolerance) AND bitwise against a local same-backend run;
     2. one tenant submits a kernel:raise fault while the other keeps
        solving — the faulted request must come back ERROR "fault", the
        clean tenant must be untouched, and the server must survive;
     3. STATS must show a nonzero JIT cache hit rate (the two tenants
        submit identical programs) and parse as JSON;
     4. SHUTDOWN must answer BYE, the daemon must exit 0, and its
        --stats-json dump must parse.

   A 60s hard watchdog keeps a wedged server from wedging runtest.

   Usage: serve_check.exe SFSERVED_EXE CORPUS_DIR *)

module P = Sf_serve.Protocol
module Client = Sf_serve.Client
module Gen = Sf_fuzz.Gen
module Corpus = Sf_fuzz.Corpus
module Diff = Sf_fuzz.Diff
module Jit = Sf_backends.Jit
module Config = Sf_backends.Config
module Json = Sf_trace.Json
open Sf_util

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("serve_check: FAIL: " ^ m);
      exit 1)
    fmt

let () =
  ignore
    (Thread.create
       (fun () ->
         Thread.delay 60.;
         prerr_endline "serve_check: 60s watchdog expired";
         exit 2)
       ())

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let workers = 2

(* Oracle 1: the interpreter, up to cross-backend tolerance. *)
let check_oracle ~file spec (grids : P.grid list) =
  let reference = Diff.run_reference spec in
  List.iter
    (fun (g : P.grid) ->
      let m = Sf_mesh.Grids.find reference g.P.gname in
      let fa = Sf_mesh.Mesh.data m in
      if Float.Array.length fa <> Array.length g.P.gdata then
        die "%s: grid %s: size mismatch vs oracle" file g.P.gname;
      Array.iteri
        (fun i v ->
          let e = Float.Array.get fa i in
          if not (Fcmp.close ~ulps:512 ~atol:1e-11 e v) then
            die "%s: grid %s diverges from interp oracle at %d: %h vs %h"
              file g.P.gname i e v)
        g.P.gdata)
    grids

(* Oracle 2: a local run of the same backend/config, bitwise. *)
let check_bitwise ~file spec (grids : P.grid list) =
  let config = { Config.default with Config.workers } in
  let kernel =
    Jit.compile ~config Jit.Openmp ~shape:spec.Gen.shape spec.Gen.group
  in
  let local = Gen.build_grids spec in
  kernel.Sf_backends.Kernel.run ~params:spec.Gen.params local;
  List.iter
    (fun (g : P.grid) ->
      let m = Sf_mesh.Grids.find local g.P.gname in
      let fa = Sf_mesh.Mesh.data m in
      Array.iteri
        (fun i v ->
          let e = Float.Array.get fa i in
          if not (Fcmp.ulp_equal ~ulps:0 e v) then
            die "%s: grid %s not bitwise identical to local run at %d"
              file g.P.gname i)
        g.P.gdata)
    grids

let replay_tenant ~socket ~tenant cases =
  match Client.connect_unix ~tenant socket with
  | Error m -> die "%s: connect: %s" tenant m
  | Ok c ->
      List.iter
        (fun (file, program, spec) ->
          match
            Client.solve c
              { P.program; backend = "openmp"; workers; reps = 1; fault = "" }
          with
          | Ok (Client.Solved { grids; _ }) ->
              check_oracle ~file spec grids;
              check_bitwise ~file spec grids
          | Ok (Client.Failed { code; message }) ->
              die "%s (%s): %s: %s" file tenant code message
          | Error m -> die "%s (%s): transport: %s" file tenant m)
        cases;
      Client.close c

let () =
  if Array.length Sys.argv < 3 then die "usage: serve_check SFSERVED CORPUS_DIR";
  let sfserved = Sys.argv.(1) in
  let corpus_dir = Sys.argv.(2) in
  let socket = Printf.sprintf "/tmp/sf-serve-%d.sock" (Unix.getpid ()) in
  let stats_path = Filename.temp_file "sfserved" ".stats.json" in
  if Sys.file_exists socket then Sys.remove socket;
  let daemon =
    Unix.create_process sfserved
      [|
        "sfserved"; "--socket"; socket; "--threads"; "2"; "--workers";
        string_of_int workers; "--stats-json"; stats_path;
      |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let kill_daemon () =
    (try Unix.kill daemon Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] daemon) with Unix.Unix_error _ -> ()
  in
  at_exit (fun () ->
      match Unix.waitpid [ Unix.WNOHANG ] daemon with
      | 0, _ -> kill_daemon ()
      | _ -> ()
      | exception Unix.Unix_error _ -> ());
  (* wait for the socket to come up *)
  let rec await n =
    if Sys.file_exists socket then ()
    else if n = 0 then die "daemon never bound %s" socket
    else begin
      Thread.delay 0.05;
      await (n - 1)
    end
  in
  await 200;

  (* --- 1. concurrent corpus replay from two tenants, both oracles --- *)
  let cases =
    List.map
      (fun file ->
        let text = read_file file in
        match Corpus.of_string ~label:(Filename.basename file) text with
        | Ok spec -> (Filename.basename file, text, spec)
        | Error m -> die "%s: corpus parse: %s" file m)
      (Corpus.files corpus_dir)
  in
  if cases = [] then die "no corpus files under %s" corpus_dir;
  let alice = Thread.create (fun () -> replay_tenant ~socket ~tenant:"alice" cases) () in
  let bob = Thread.create (fun () -> replay_tenant ~socket ~tenant:"bob" cases) () in
  Thread.join alice;
  Thread.join bob;
  Printf.printf "serve_check: %d corpus programs x 2 tenants ok (oracle + bitwise)\n%!"
    (List.length cases);

  (* --- 2. fault isolation: mallory's injected fault, carol unharmed --- *)
  let _, program, _ = List.hd cases in
  let mallory =
    match Client.connect_unix ~tenant:"mallory" socket with
    | Ok c -> c
    | Error m -> die "mallory connect: %s" m
  in
  let carol =
    match Client.connect_unix ~tenant:"carol" socket with
    | Ok c -> c
    | Error m -> die "carol connect: %s" m
  in
  let carol_done = ref 0 in
  let carol_thread =
    Thread.create
      (fun () ->
        for _ = 1 to 5 do
          match
            Client.solve carol
              { P.program; backend = "openmp"; workers; reps = 1; fault = "" }
          with
          | Ok (Client.Solved _) -> incr carol_done
          | Ok (Client.Failed { code; message }) ->
              die "carol collateral damage: %s: %s" code message
          | Error m -> die "carol transport: %s" m
        done)
      ()
  in
  (match
     Client.solve mallory
       {
         P.program;
         backend = "openmp";
         workers;
         reps = 1;
         fault = "kernel:raise@n=1";
       }
   with
  | Ok (Client.Failed { code; _ }) when code = P.err_fault -> ()
  | Ok (Client.Failed { code; message }) ->
      die "fault came back as %s (%s), expected %s" code message P.err_fault
  | Ok (Client.Solved _) -> die "injected fault did not fail the request"
  | Error m -> die "mallory transport: %s" m);
  Thread.join carol_thread;
  if !carol_done <> 5 then die "carol finished %d/5 solves" !carol_done;
  (* and mallory's session still works after its fault *)
  (match
     Client.solve mallory
       { P.program; backend = "openmp"; workers; reps = 1; fault = "" }
   with
  | Ok (Client.Solved _) -> ()
  | _ -> die "server did not survive the injected fault");
  Printf.printf "serve_check: fault isolation ok (ERROR %s to mallory, carol 5/5)\n%!"
    P.err_fault;

  (* --- 3. STATS: parses, and the JIT cache actually got hits --- *)
  let stats =
    match Client.stats carol with Ok s -> s | Error m -> die "stats: %s" m
  in
  let doc =
    match Json.of_string stats with
    | Ok d -> d
    | Error m -> die "STATS did not parse: %s" m
  in
  let jit_hits =
    match Option.bind (Json.member "jit" doc) (Json.member "hits") with
    | Some (Json.Num n) -> int_of_float n
    | _ -> die "STATS has no jit.hits"
  in
  if jit_hits = 0 then die "JIT cache hit rate is zero across tenants";
  (match Json.member "tenants" doc with
  | Some (Json.Arr (_ :: _)) -> ()
  | _ -> die "STATS has no tenants array");
  (* the native tier's figures: a share of cells and the reason for any
     fallback (null when nothing failed) *)
  let native = Json.member "native" doc in
  (match Option.bind native (Json.member "native_share") with
  | Some (Json.Num f) when f >= 0. && f <= 1. -> ()
  | _ -> die "STATS has no native.native_share");
  (match Option.bind native (Json.member "fallback") with
  | Some (Json.Str _ | Json.Null) -> ()
  | _ -> die "STATS has no native.fallback");
  Printf.printf "serve_check: STATS ok (jit hits = %d)\n%!" jit_hits;

  (* --- 4. SHUTDOWN: BYE, daemon exit 0, stats dump parses --- *)
  (match Client.shutdown carol with
  | Ok () -> ()
  | Error m -> die "shutdown: %s" m);
  Client.close carol;
  Client.close mallory;
  (match Unix.waitpid [] daemon with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> die "daemon exited %d" n
  | _, _ -> die "daemon killed by signal");
  (match Json.of_string (read_file stats_path) with
  | Ok _ -> ()
  | Error m -> die "--stats-json dump did not parse: %s" m);
  Sys.remove stats_path;
  print_endline "serve_check: shutdown ok; all checks passed"
