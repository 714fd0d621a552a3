open Sf_util
open Sf_mesh
open Snowflake
module Trace = Sf_trace.Trace
module Fault = Sf_resilience.Fault

external dlopen : string -> nativeint = "sf_native_dlopen"
external dlsym : nativeint -> string -> nativeint = "sf_native_dlsym"

external call : nativeint -> floatarray array -> int array -> floatarray -> unit
  = "sf_native_call"
[@@noalloc]

external spawn : string -> string array -> string array -> string -> int
  = "sf_native_spawn"

let promote_cells = 4_000_000
let compile_timeout = 60.
let probe_timeout = 10.
let flags = [ "-O2"; "-fPIC"; "-shared"; "-ffp-contract=off" ]

(* Bumped whenever the kernel calling convention below or the stub
   changes, so stale cache entries are never loaded. *)
let abi = 1

(* ------------------------------------------------------------------- *)
(* Structure: which data pointer, read group and delta each read uses   *)
(* ------------------------------------------------------------------- *)

type layout = {
  dims : int;
  slots : string array;
  groups : (string * Ivec.t) array;
  taps : (Polyform.read * int * int) array;
}

(* First-seen numbering of the values [index] is applied to. *)
let numbering eq =
  let seen = ref [] in
  let index x =
    match List.find_opt (fun (y, _) -> eq x y) !seen with
    | Some (_, i) -> i
    | None ->
        let i = List.length !seen in
        seen := (x, i) :: !seen;
        i
  in
  (index, fun () -> Array.of_list (List.rev_map fst !seen))

let same_read (g1, m1) (g2, m2) = String.equal g1 g2 && Affine.equal m1 m2

let make_layout ~output ~dims (f : Polyform.factored) =
  let slot, slots = numbering String.equal in
  let group, groups =
    numbering (fun (g1, s1) (g2, s2) -> String.equal g1 g2 && Ivec.equal s1 s2)
  in
  let tap, taps = numbering same_read in
  ignore (slot output);
  let visit ((g, (m : Affine.t)) as r) =
    ignore (slot g);
    ignore (group (g, m.Affine.scale));
    ignore (tap r)
  in
  let rec node (f : Polyform.factored) =
    List.iter (fun (r, _) -> visit r) f.Polyform.flinear;
    List.iter
      (fun (r, sub) ->
        visit r;
        node sub)
      f.Polyform.ffactors;
    List.iter (fun (m : Polyform.mono) -> List.iter visit m.Polyform.reads)
      f.Polyform.fresidual
  in
  node f;
  let taps =
    Array.map
      (fun ((g, (m : Affine.t)) as r) -> (r, slot g, group (g, m.Affine.scale)))
      (taps ())
  in
  { dims; slots = slots (); groups = groups (); taps }

let tap_index l r =
  let rec find t =
    let r', _, _ = l.taps.(t) in
    if same_read r' r then t else find (t + 1)
  in
  find 0

(* ------------------------------------------------------------------- *)
(* Emission.  One C function per structure:                             *)
(*   void sf_<hash>(double *const *A, const long *G, const double *K)   *)
(* A: data pointer per slot (slot 0 is the output); G: the tile's       *)
(* geometry, [counts; out base; out steps; per group (base; steps);     *)
(* per tap delta]; K: coefficients.  Everything that varies with the    *)
(* level, shape or parameter values is a run-time argument, so one      *)
(* build serves all of them.  No [restrict]: in-place stencils read the *)
(* mesh they write, possibly under another name.                        *)
(* ------------------------------------------------------------------- *)

let sp = Printf.sprintf

let emit l (f : Polyform.factored) ~fname =
  let open C_ast in
  let n = l.dims in
  let ng = Array.length l.groups and nt = Array.length l.taps in
  (* coefficient k<i> is the i-th value [coefs] lists *)
  let nk = ref 0 in
  let coef (_ : float) =
    incr nk;
    Var (sp "k%d" (!nk - 1))
  in
  let pos g k = sp "p%d_%d" g k in
  let read r =
    let t = tap_index l r in
    let _, s, g = l.taps.(t) in
    Index (sp "s%d" s, Bin ("+", Var (pos g (n - 1)), Var (sp "d%d" t)))
  in
  (* One node of the factored form into [v<id>], in exactly the row
     evaluator's per-cell order: constant, linear taps left to right,
     factors [v + r·sub], residual monomials [v + ((w·r₁)·r₂)…]. *)
  let nv = ref 0 in
  let rec node (f : Polyform.factored) =
    let x = sp "v%d" !nv in
    incr nv;
    let acc e = Assign (Var x, Bin ("+", Var x, e)) in
    let init = Decl ("double", x, Some (coef f.Polyform.fconst)) in
    let linear =
      List.map (fun (r, w) -> acc (Bin ("*", coef w, read r))) f.Polyform.flinear
    in
    let factors =
      List.concat_map
        (fun (r, sub) ->
          let body, y = node sub in
          body @ [ acc (Bin ("*", read r, Var y)) ])
        f.Polyform.ffactors
    in
    let residual =
      List.map
        (fun (m : Polyform.mono) ->
          acc
            (List.fold_left
               (fun p r -> Bin ("*", p, read r))
               (coef m.Polyform.coeff) m.Polyform.reads))
        f.Polyform.fresidual
    in
    ((init :: linear) @ factors @ residual, x)
  in
  let cell, root = node f in
  let cell = cell @ [ Assign (Index ("s0", Var (sp "q%d" (n - 1))), Var root) ] in
  (* row-major over the tile: one loop per axis, positions recomputed from
     the enclosing axis' (gcc strength-reduces them) *)
  let rec loops k =
    if k = n then cell
    else
      let i = Var (sp "i%d" k) in
      let step prev inc = Some (Bin ("+", prev, Bin ("*", i, Var inc))) in
      let out_prev = if k = 0 then Var "ob" else Var (sp "q%d" (k - 1)) in
      let grp_prev g = if k = 0 then Var (sp "gb%d" g) else Var (pos g (k - 1)) in
      [
        For
          {
            var = sp "i%d" k;
            from_ = Int 0;
            below = Var (sp "n%d" k);
            step = Int 1;
            body =
              (Decl ("const long", sp "q%d" k, step out_prev (sp "oi%d" k))
              :: List.init ng (fun g ->
                     Decl ("const long", pos g k, step (grp_prev g) (sp "gi%d_%d" g k))))
              @ loops (k + 1);
          };
      ]
  in
  let body = loops 0 in
  let geo name i = Decl ("const long", name, Some (Index ("G", Int i))) in
  let group_base g = (2 * n) + 1 + (g * (n + 1)) in
  let header =
    List.mapi
      (fun s _ ->
        Decl
          ( (if s = 0 then "double *" else "const double *"),
            sp "s%d" s,
            Some (Index ("A", Int s)) ))
      (Array.to_list l.slots)
    @ List.init n (fun k -> geo (sp "n%d" k) k)
    @ (geo "ob" n :: List.init n (fun k -> geo (sp "oi%d" k) (n + 1 + k)))
    @ List.concat
        (List.init ng (fun g ->
             geo (sp "gb%d" g) (group_base g)
             :: List.init n (fun k -> geo (sp "gi%d_%d" g k) (group_base g + 1 + k))))
    @ List.init nt (fun t -> geo (sp "d%d" t) (group_base ng + t))
    @ List.init !nk (fun i ->
          Decl ("const double", sp "k%d" i, Some (Index ("K", Int i))))
  in
  {
    qualifier = "";
    ret = "void";
    fname;
    params =
      [
        { ctype = "double *const *"; name = "A" };
        { ctype = "const long *"; name = "G" };
        { ctype = "const double *"; name = "K" };
      ];
    body = header @ body;
  }

(* The run-time coefficients, in the order [emit] numbers them: a node's
   constant, its linear weights, its factors' coefficients (depth
   first), its residual monomials' weights. *)
let coefs f =
  let rec node (f : Polyform.factored) =
    (f.Polyform.fconst :: List.map snd f.Polyform.flinear)
    @ List.concat_map (fun (_, sub) -> node sub) f.Polyform.ffactors
    @ List.map (fun (m : Polyform.mono) -> m.Polyform.coeff) f.Polyform.fresidual
  in
  Float.Array.of_list (node f)

(* [f] with every coefficient zeroed: what the emitted code depends on. *)
let rec blank (f : Polyform.factored) =
  {
    Polyform.fconst = 0.;
    flinear = List.map (fun (r, _) -> (r, 0.)) f.Polyform.flinear;
    ffactors = List.map (fun (r, sub) -> (r, blank sub)) f.Polyform.ffactors;
    fresidual = List.map (fun (m : Polyform.mono) -> { m with Polyform.coeff = 0. }) f.Polyform.fresidual;
  }

let header =
  "/* Generated by the Snowflake native tier: one function per stencil\n\
  \   structure, bitwise equal to the OCaml row evaluator. */\n"

let translation_unit sources = header ^ String.concat "\n\n" sources ^ "\n"

(* ------------------------------------------------------------------- *)
(* Per-structure state                                                  *)
(* ------------------------------------------------------------------- *)

type failure =
  | No_gcc
  | Timeout
  | Compile_error of string
  | Load_error of string
  | Injected of string
  | Cache_unusable of string

let failure_to_string = function
  | No_gcc -> "gcc not found"
  | Timeout -> "compile timeout"
  | Compile_error m -> "compile failed: " ^ m
  | Load_error m -> "load failed: " ^ m
  | Injected site -> "injected fault at " ^ site
  | Cache_unusable m -> "cache directory unusable: " ^ m

let skipped = function
  | No_gcc -> Some "native: skipped (no gcc)"
  | (Timeout | Injected _ | Cache_unusable _) as f ->
      Some ("native: skipped (" ^ failure_to_string f ^ ")")
  | Compile_error _ | Load_error _ -> None

(* A running child: gcc, or the gcc version probe. *)
type job = { pid : int; dir : string; deadline : float }

type state =
  | Cold  (* below the break-even: row evaluator *)
  | Queued  (* promoted, waiting for the compiler probe *)
  | Building of job * string * string  (* job, cache directory, key *)
  | Ready of nativeint
  | Failed of failure

type entry = {
  name : string;  (* the C function's name, a digest of its body *)
  source : string;
  row_cells : int Atomic.t;
  native_cells : int Atomic.t;
  state : state Atomic.t;
  next_poll_us : int Atomic.t;
  lock : Mutex.t;  (* held by whoever advances the state machine *)
}

let mu = Mutex.create ()
let registry : (string, entry) Hashtbl.t = Hashtbl.create 16
let promotions = Atomic.make 0
let disk_hits = Atomic.make 0
let builds = Atomic.make 0
let failures = Atomic.make 0
let last_failure : failure option Atomic.t = Atomic.make None

(* under [mu] *)
let intern ~name ~source =
  match Hashtbl.find_opt registry name with
  | Some e -> e
  | None ->
      let e =
        {
          name; source; row_cells = Atomic.make 0; native_cells = Atomic.make 0;
          state = Atomic.make Cold; next_poll_us = Atomic.make 0;
          lock = Mutex.create ();
        }
      in
      Hashtbl.add registry name e;
      e

let record_failure f =
  Atomic.incr failures;
  Atomic.set last_failure (Some f);
  if Trace.on () then Trace.add Trace.Native_failures 1

(* ------------------------------------------------------------------- *)
(* Child processes.  Each runs in its own process group inside its own  *)
(* job directory (also its TMPDIR), so a timeout or process exit kills  *)
(* the whole gcc pipeline and removes everything it wrote.              *)
(* ------------------------------------------------------------------- *)

let live : job list Atomic.t = Atomic.make []

let rec update a f =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (f old)) then update a f

let remove_tree dir =
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir)
   with Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let kill_job j =
  (try Unix.kill (-j.pid) Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] j.pid) with Unix.Unix_error _ -> ()

let release j =
  update live (List.filter (fun j' -> j'.pid <> j.pid));
  remove_tree j.dir

(* At exit, no compile is waited for: kill each one and remove its
   directory, so nothing half-built is left for a later run. *)
let abandon_all () =
  List.iter
    (fun j ->
      kill_job j;
      remove_tree j.dir)
    (Atomic.exchange live [])

let exit_hook = Atomic.make false
let job_seq = Atomic.make 0

let new_job_dir root =
  let dir =
    Filename.concat root
      (sp "job-%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add job_seq 1))
  in
  Unix.mkdir dir 0o700;
  dir

(* Filesystem trouble (a full disk, a vanished directory) fails the build
   like any compile error; it must not escape into a kernel call. *)
let guarded f =
  try f () with
  | Unix.Unix_error (e, fn, _) -> Error (Compile_error (fn ^ ": " ^ Unix.error_message e))
  | Sys_error m -> Error (Compile_error m)

(* Start [argv] in the job directory [dir], which becomes its TMPDIR and
   holds its output log. *)
let start_job ~dir ~timeout argv =
  if not (Atomic.exchange exit_hook true) then at_exit abandon_all;
  let env =
    Array.append
      [| "TMPDIR=" ^ dir |]
      (Array.of_list
         (List.filter
            (fun e -> not (String.starts_with ~prefix:"TMPDIR=" e))
            (Array.to_list (Unix.environment ()))))
  in
  let pid = spawn argv.(0) argv env (Filename.concat dir "log") in
  if pid < 0 then begin
    remove_tree dir;
    (* ENOENT is 2 on every Unix *)
    Error
      (if pid = -2 then No_gcc
       else Compile_error (sp "cannot start %s (errno %d)" argv.(0) (-pid)))
  end
  else begin
    let j = { pid; dir; deadline = Unix.gettimeofday () +. timeout } in
    update live (fun l -> j :: l);
    Ok j
  end

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* The first line of the job's log mentioning an error (else its first
   line): what a failure reports. *)
let log_line j =
  match In_channel.with_open_bin (Filename.concat j.dir "log") In_channel.input_all with
  | exception Sys_error _ -> ""
  | s -> (
      let lines =
        List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)
      in
      match List.find_opt (fun l -> contains l "error") lines with
      | Some l -> l
      | None -> ( match lines with l :: _ -> l | [] -> ""))

(* [`Running] or the outcome; a job past its deadline is killed. *)
let poll_job j =
  match Unix.waitpid [ Unix.WNOHANG ] j.pid with
  | 0, _ ->
      if Unix.gettimeofday () > j.deadline then begin
        kill_job j;
        `Done (Error Timeout)
      end
      else `Running
  | _, Unix.WEXITED 0 -> `Done (Ok ())
  | _, Unix.WEXITED c -> `Done (Error (Compile_error (sp "exit %d: %s" c (log_line j))))
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      `Done (Error (Compile_error (sp "killed by signal %d" s)))
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Running
  | exception Unix.Unix_error (e, _, _) ->
      `Done (Error (Compile_error (Unix.error_message e)))

let rec wait_job j =
  match poll_job j with
  | `Running ->
      Unix.sleepf 0.002;
      wait_job j
  | `Done r -> r

(* ------------------------------------------------------------------- *)
(* The compiler: its version is part of every cache key                 *)
(* ------------------------------------------------------------------- *)

type compiler = Unprobed | Probing of job | Found of string | Missing of failure

let compiler = ref Unprobed (* under [mu] *)

(* One non-blocking step of the probe ([gcc --version]). *)
let compiler_step root =
  match !compiler with
  | Found v -> `Found v
  | Missing f -> `Missing f
  | Unprobed -> (
      match
        guarded (fun () ->
            start_job ~dir:(new_job_dir root) ~timeout:probe_timeout [| "gcc"; "--version" |])
      with
      | Ok j ->
          compiler := Probing j;
          `Wait
      | Error f ->
          compiler := Missing f;
          `Missing f)
  | Probing j -> (
      match poll_job j with
      | `Running -> `Wait
      | `Done r ->
          let first =
            match In_channel.with_open_bin (Filename.concat j.dir "log") In_channel.input_line with
            | exception Sys_error _ -> None
            | l -> l
          in
          release j;
          (compiler :=
             match (r, first) with
             | Ok (), Some v -> Found v
             | Ok (), None -> Missing (Compile_error "gcc --version printed nothing")
             | Error f, _ -> Missing f);
          (match !compiler with Found v -> `Found v | Missing f -> `Missing f | _ -> `Wait))

let rec wait_compiler root =
  match Mutex.protect mu (fun () -> compiler_step root) with
  | `Wait ->
      Unix.sleepf 0.002;
      wait_compiler root
  | `Found v -> Ok v
  | `Missing f -> Error f

(* ------------------------------------------------------------------- *)
(* The on-disk cache                                                    *)
(* ------------------------------------------------------------------- *)

let swept : string list Atomic.t = Atomic.make []

(* Job directories left by a process that died without its exit hook. *)
let sweep_stale root =
  if not (List.mem root (Atomic.get swept)) then begin
    update swept (fun l -> root :: l);
    Array.iter
      (fun f ->
        match String.split_on_char '-' f with
        | [ "job"; pid; _ ] -> (
            match int_of_string_opt pid with
            | Some pid when pid <> Unix.getpid () -> (
                match Unix.kill pid 0 with
                | () -> ()
                | exception Unix.Unix_error (Unix.ESRCH, _, _) ->
                    remove_tree (Filename.concat root f)
                | exception Unix.Unix_error _ -> ())
            | _ -> ())
        | _ -> ())
      (try Sys.readdir root with Sys_error _ -> [||])
  end

(* Private to this user: whoever can write here can make us load their
   code. *)
let cache_root () =
  let uid = Unix.getuid () in
  let root =
    Filename.concat (Filename.get_temp_dir_name ()) (sp "snowflake-native-%d" uid)
  in
  match
    (try Unix.mkdir root 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Unix.lstat root
  with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Cache_unusable (sp "%s: %s" root (Unix.error_message e)))
  | st ->
      if
        st.Unix.st_kind <> Unix.S_DIR
        || st.Unix.st_uid <> uid
        || st.Unix.st_perm land 0o022 <> 0
      then Error (Cache_unusable (root ^ ": not a private directory"))
      else begin
        sweep_stale root;
        Ok root
      end

(* A published file is the shared object followed by the digest of its
   bytes: one rename publishes both, and a truncated or foreign file
   fails the check and is never handed to dlopen. *)
let digest_len = 16

let verified path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> false
  | s ->
      let n = String.length s - digest_len in
      n > 0
      && String.equal (Digest.string (String.sub s 0 n)) (String.sub s n digest_len)

let key_of ~version source =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [ source; version; String.concat " " flags; string_of_int abi ]))

let so_path root key = Filename.concat root (key ^ ".so")

let injected site detail =
  Fault.armed () && Fault.check ~site ~detail <> None

let load path names =
  if injected "native-load" path then Error (Injected "native-load")
  else
    match dlopen path with
    | exception Failure m -> Error (Load_error m)
    | h -> (
        try Ok (List.map (dlsym h) names)
        with Not_found -> Error (Load_error ("symbol missing in " ^ path)))

(* [Some] when a verified file is on disk.  A file that fails the check
   is removed, so the caller rebuilds it. *)
let from_disk ~root ~key names =
  let path = so_path root key in
  if not (Sys.file_exists path) then None
  else if verified path then begin
    Atomic.incr disk_hits;
    if Trace.on () then Trace.add Trace.Native_disk_hits 1;
    Some (load path names)
  end
  else begin
    (try Sys.remove path with Sys_error _ -> ());
    None
  end

let begin_build ~root ~key ~timeout source =
  if injected "native-compile" key then Error (Injected "native-compile")
  else
    guarded (fun () ->
        let dir = new_job_dir root in
        let src = Filename.concat dir "k.c" in
        Out_channel.with_open_bin src (fun oc -> output_string oc source);
        start_job ~dir ~timeout
          (Array.of_list (("gcc" :: flags) @ [ "-o"; Filename.concat dir "k.so"; src ])))

(* Append the digest and rename into place: the file appears whole or not
   at all, whoever else is publishing the same key. *)
let publish ~root ~key j =
  let built = Filename.concat j.dir "k.so" in
  let published =
    guarded (fun () ->
        let s = In_channel.with_open_bin built In_channel.input_all in
        Out_channel.with_open_gen [ Open_wronly; Open_append; Open_binary ] 0o600 built
          (fun oc -> output_string oc (Digest.string s));
        Unix.rename built (so_path root key);
        Ok (so_path root key))
  in
  release j;
  if Result.is_ok published then Atomic.incr builds;
  published

let finish ~root ~key j outcome names =
  match outcome with
  | Error f ->
      release j;
      Error f
  | Ok () -> Result.bind (publish ~root ~key j) (fun path -> load path names)

(* ------------------------------------------------------------------- *)
(* Tiering: the state machine each structure walks once it is hot       *)
(* ------------------------------------------------------------------- *)

let fail e from f =
  if Atomic.compare_and_set e.state from (Failed f) then record_failure f

let ready e from fn = ignore (Atomic.compare_and_set e.state from (Ready fn))

(* At most one background build at a time: the structure running it.
   Promotions that find it taken stay queued and drive it along, so it
   finishes even if its own stencil never runs again. *)
let build_slot : entry option Atomic.t = Atomic.make None

(* One non-blocking step; concurrent callers skip instead of waiting. *)
let rec advance e =
  if Mutex.try_lock e.lock then
    Fun.protect
      ~finally:(fun () -> Mutex.unlock e.lock)
      (fun () ->
        match Atomic.get e.state with
        | Queued as st -> (
            match cache_root () with
            | Error f -> fail e st f
            | Ok root -> (
                match Mutex.protect mu (fun () -> compiler_step root) with
                | `Wait -> ()
                | `Missing f -> fail e st f
                | `Found version -> (
                    let source = translation_unit [ e.source ] in
                    let key = key_of ~version source in
                    match from_disk ~root ~key [ e.name ] with
                    | Some (Ok fns) -> ready e st (List.hd fns)
                    | Some (Error f) -> fail e st f
                    | None -> (
                        match Atomic.get build_slot with
                        | Some other as held -> (
                            match Atomic.get other.state with
                            | Building _ -> advance other
                            | _ -> ignore (Atomic.compare_and_set build_slot held None))
                        | None when Atomic.compare_and_set build_slot None (Some e) -> (
                            match begin_build ~root ~key ~timeout:compile_timeout source with
                            | Ok j ->
                                if not (Atomic.compare_and_set e.state st (Building (j, root, key)))
                                then begin
                                  (* built meanwhile by [compile_pending] *)
                                  kill_job j;
                                  release j;
                                  Atomic.set build_slot None
                                end
                            | Error f ->
                                Atomic.set build_slot None;
                                fail e st f)
                        | None -> ()))))
        | Building (j, root, key) as st -> (
            match poll_job j with
            | `Running -> ()
            | `Done outcome -> (
                let result = finish ~root ~key j outcome [ e.name ] in
                Atomic.set build_slot None;
                match result with
                | Ok fns -> ready e st (List.hd fns)
                | Error f -> fail e st f))
        | Cold | Ready _ | Failed _ -> ())

let poll_interval_us = 2000

let poll e =
  let now = int_of_float (Unix.gettimeofday () *. 1e6) in
  if now >= Atomic.get e.next_poll_us then begin
    Atomic.set e.next_poll_us (now + poll_interval_us);
    advance e
  end

let promote e =
  if Atomic.compare_and_set e.state Cold Queued then begin
    Atomic.incr promotions;
    if Trace.on () then Trace.add Trace.Native_promotions 1;
    advance e
  end

(* ------------------------------------------------------------------- *)
(* Prepared stencils and tiles                                          *)
(* ------------------------------------------------------------------- *)

type prepared = {
  layout : layout;
  entry : entry;
  arrays : floatarray array;
  coefs : floatarray;
  deltas : int array;
}

(* The structure's function (named by a digest of its body, so equal
   structures share a name and a build wherever they occur) and this
   stencil's coefficients. *)
let structure (s : Stencil.t) (f : Polyform.factored) =
  let dims = Ivec.dims s.Stencil.out_map.Affine.scale in
  let l = make_layout ~output:s.Stencil.output ~dims f in
  let body = emit l f ~fname:"sf_kernel" in
  let name = "sf_" ^ String.sub (Digest.to_hex (Digest.string (C_pp.func_to_string body))) 0 16 in
  (l, name, C_pp.func_to_string { body with C_ast.fname = name })

let emit_source s f =
  let _, _, source = structure s f in
  source

(* Emission memoised on what it depends on: a stencil prepared again (a
   new level, new grids, new parameter values) reuses its structure. *)
let shapes : (string * int * Polyform.factored, layout * entry) Hashtbl.t =
  Hashtbl.create 16

let prepare grids (s : Stencil.t) (f : Polyform.factored) =
  let key = (s.Stencil.output, Ivec.dims s.Stencil.out_map.Affine.scale, blank f) in
  let l, entry =
    Mutex.protect mu (fun () ->
        match Hashtbl.find_opt shapes key with
        | Some v -> v
        | None ->
            let l, name, source = structure s f in
            let v = (l, intern ~name ~source) in
            Hashtbl.add shapes key v;
            v)
  in
  let mesh g = Grids.find grids g in
  {
    layout = l;
    entry;
    arrays = Array.map (fun g -> Mesh.data (mesh g)) l.slots;
    coefs = coefs f;
    deltas =
      Array.map
        (fun ((g, (m : Affine.t)), _, _) -> Ivec.dot (Mesh.strides (mesh g)) m.Affine.offset)
        l.taps;
  }

let geometry p ~counts ~out_base ~out_inc ~gbase ~ginc =
  Array.concat
    ([ counts; [| out_base |]; out_inc ]
    @ List.concat (List.init (Array.length gbase) (fun g -> [ [| gbase.(g) |]; ginc.(g) ]))
    @ [ p.deltas ])

let run p geo ~cells row =
  let e = p.entry in
  match Atomic.get e.state with
  | Ready fn ->
      call fn p.arrays geo p.coefs;
      ignore (Atomic.fetch_and_add e.native_cells cells);
      if Trace.on () then Trace.add Trace.Native_cells cells
  | st -> (
      row ();
      let before = Atomic.fetch_and_add e.row_cells cells in
      match st with
      | Cold -> if before < promote_cells && before + cells >= promote_cells then promote e
      | Queued | Building _ -> poll e
      | Ready _ | Failed _ -> ())

let layout p = p.layout
let deltas p = p.deltas

(* ------------------------------------------------------------------- *)
(* Synchronous batches                                                  *)
(* ------------------------------------------------------------------- *)

type origin = Disk | Built

let compile_pending ?(timeout = compile_timeout) () =
  let todo =
    Mutex.protect mu (fun () ->
        Hashtbl.fold
          (fun _ e acc ->
            match Atomic.get e.state with Ready _ | Building _ -> acc | _ -> e :: acc)
          registry [])
    |> List.sort (fun a b -> String.compare a.name b.name)
  in
  let names = List.map (fun e -> e.name) todo in
  let ( let* ) = Result.bind in
  if todo = [] then Ok Disk
  else
  let result =
    let* root = cache_root () in
    let* version = wait_compiler root in
    let source = translation_unit (List.map (fun e -> e.source) todo) in
    let key = key_of ~version source in
    match from_disk ~root ~key names with
    | Some r -> Result.map (fun fns -> (Disk, fns)) r
    | None ->
        let* j = begin_build ~root ~key ~timeout source in
        let outcome = wait_job j in
        Result.map (fun fns -> (Built, fns)) (finish ~root ~key j outcome names)
  in
  match result with
  | Ok (origin, fns) ->
      List.iter2 (fun e fn -> Atomic.set e.state (Ready fn)) todo fns;
      Ok origin
  | Error f ->
      List.iter
        (fun e ->
          match Atomic.get e.state with
          | Ready _ | Failed _ -> ()
          | st -> ignore (Atomic.compare_and_set e.state st (Failed f)))
        todo;
      record_failure f;
      Error f

(* ------------------------------------------------------------------- *)
(* Observability                                                        *)
(* ------------------------------------------------------------------- *)

type stats = {
  structures : int;
  native_structures : int;
  promotions : int;
  disk_hits : int;
  builds : int;
  failures : int;
  native_cells : int;
  row_cells : int;
  fallback : string option;
}

let stats () =
  let structures, native_structures, native_cells, row_cells =
    Mutex.protect mu (fun () ->
        Hashtbl.fold
          (fun _ e (s, n, nc, rc) ->
            ( s + 1,
              (n + match Atomic.get e.state with Ready _ -> 1 | _ -> 0),
              nc + Atomic.get e.native_cells,
              rc + Atomic.get e.row_cells ))
          registry (0, 0, 0, 0))
  in
  {
    structures;
    native_structures;
    promotions = Atomic.get promotions;
    disk_hits = Atomic.get disk_hits;
    builds = Atomic.get builds;
    failures = Atomic.get failures;
    native_cells;
    row_cells;
    fallback = Option.map failure_to_string (Atomic.get last_failure);
  }

let native_share s =
  let total = s.native_cells + s.row_cells in
  if total = 0 then 0. else float_of_int s.native_cells /. float_of_int total

let describe () =
  let s = stats () in
  sp "native: %.1f%% of polynomial-stencil cells (%d native, %d row); %d/%d \
      structure(s) native; %d promotion(s), %d disk hit(s), %d build(s), %d \
      failure(s)%s"
    (100. *. native_share s) s.native_cells s.row_cells s.native_structures
    s.structures s.promotions s.disk_hits s.builds s.failures
    (match s.fallback with Some r -> "; fallback: " ^ r | None -> "")
