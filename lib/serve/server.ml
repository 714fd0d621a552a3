(* The solve server.  Three lock domains, never held together except in
   the stated order:

     sched  — tenant queues, tickets, stop flag, coalesce table
     xmx    — the clean/faulted execution phase (reader-writer style)
     Session's internal lock (leaf; taken under sched in submit)

   Connection threads only touch sched + sessions; executor threads
   touch all three but take xmx only after releasing sched. *)

open Sf_util
module Jit = Sf_backends.Jit
module Config = Sf_backends.Config
module Supervise = Sf_backends.Supervise
module Native = Sf_backends.Native
module Fault = Sf_resilience.Fault
module Guard = Sf_resilience.Guard
module Supervisor = Sf_resilience.Supervisor
module Gen = Sf_fuzz.Gen
module Corpus = Sf_fuzz.Corpus
module Trace = Sf_trace.Trace
module Slo = Sf_trace.Slo
module Json = Sf_trace.Json
module P = Protocol

type config = {
  threads : int;
  queue_cap : int;
  quota : Session.quota;
  backend : Jit.backend;
  workers : int;
  max_workers : int;
  max_reps : int;
  max_program_bytes : int;
  allow_faults : bool;
  allow_shutdown : bool;
}

let default_config =
  {
    threads = 2;
    queue_cap = 64;
    quota = Session.default_quota;
    backend = Jit.Openmp;
    workers = 1;
    (* the pool itself tops out at ~120 helper domains; anything above
       this is a hostile or broken client, not a plausible solve *)
    max_workers = 128;
    max_reps = 4096;
    max_program_bytes = 1024 * 1024;
    allow_faults = true;
    allow_shutdown = true;
  }

type job = {
  ticket : int;
  session : Session.t;
  spec : Gen.spec;
  jbackend : Jit.backend;
  jconfig : Config.t;
  reps : int;
  fault : string; (* "" = clean *)
  enqueued_us : float;
}

type ticket_state =
  | Queued of job
  | Running of job
  | Done of string * P.reply  (* owner tenant, final reply *)

type t = {
  cfg : config;
  (* --- sched domain --- *)
  sched : Mutex.t;
  work : Condition.t;
  queues : (string, job Queue.t) Hashtbl.t;
  mutable rr : string list; (* round-robin tenant rotation *)
  tickets : (int, ticket_state) Hashtbl.t;
  orphaned : (int, unit) Hashtbl.t; (* running, but the submitter is gone *)
  mutable next_ticket : int;
  mutable queued : int;
  mutable stop_flag : bool;
  compiling : (string, unit) Hashtbl.t; (* in-flight compile keys *)
  compile_done : Condition.t;
  mutable listen_fd : Unix.file_descr option;
  (* --- execution-phase domain --- *)
  xmx : Mutex.t;
  xcv : Condition.t;
  mutable clean_active : int;
  mutable fault_active : bool;
  mutable fault_waiting : int;
  (* --- counters (sched) --- *)
  mutable n_busy : int;
  mutable n_coalesced : int;
  mutable executors : Thread.t list;
  started_us : float;
  (* --- SLO instruments --- *)
  lat_series : Slo.series; (* admission -> reply ready, µs *)
  solve_series : Slo.series; (* kernel run only, µs *)
  depth_gauge : Slo.gauge;
}

let config t = t.cfg
let stopped t = Mutex.protect t.sched (fun () -> t.stop_flag)

(* ------------------------------------------------- verdict classifiers *)

let classifiers_registered = Atomic.make false

let register_classifiers () =
  if not (Atomic.exchange classifiers_registered true) then
    Supervisor.register_classifier (function
      | Jit.Certification_failed { backend; group; diagnostics } ->
          Some
            {
              Supervisor.code = P.err_certification;
              message =
                Printf.sprintf "%s/%s: %d diagnostic(s)" backend group
                  (List.length diagnostics);
              fatal = false;
            }
      | Fault.Injected { site; kind; detail } ->
          Some
            {
              Supervisor.code = P.err_fault;
              message =
                Printf.sprintf "injected %s at %s (%s)"
                  (Fault.kind_name kind) site detail;
              fatal = false;
            }
      | Guard.Tripped { grid; index; value } ->
          Some
            {
              Supervisor.code = P.err_guard;
              message =
                Printf.sprintf "non-finite %h in %s at flat index %d" value
                  grid index;
              fatal = false;
            }
      | _ -> None)

(* ------------------------------------------------------------ executors *)

(* Pick the next job in round-robin tenant order; caller holds sched. *)
let pick_job t =
  let rec go seen = function
    | [] -> None
    | tenant :: rest -> (
        match Hashtbl.find_opt t.queues tenant with
        | Some q when not (Queue.is_empty q) ->
            let job = Queue.pop q in
            t.rr <- List.rev_append seen (rest @ [ tenant ]);
            Some job
        | _ -> go (tenant :: seen) rest)
  in
  go [] t.rr

let grids_payload grids =
  List.map
    (fun name ->
      let m = Sf_mesh.Grids.find grids name in
      let fa = Sf_mesh.Mesh.data m in
      {
        P.gname = name;
        gshape = Ivec.to_list (Sf_mesh.Mesh.shape m);
        gdata = Array.init (Float.Array.length fa) (Float.Array.get fa);
      })
    (List.sort String.compare (Sf_mesh.Grids.names grids))

(* Coalescing front: at most one in-flight lowering per structural cache
   key; latecomers wait, then take the Jit cache hit. *)
let coalesced_compile t ~key compile =
  let wait_or_claim () =
    Mutex.protect t.sched (fun () ->
        if Hashtbl.mem t.compiling key then begin
          t.n_coalesced <- t.n_coalesced + 1;
          while Hashtbl.mem t.compiling key do
            Condition.wait t.compile_done t.sched
          done
        end;
        Hashtbl.replace t.compiling key ())
  in
  wait_or_claim ();
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect t.sched (fun () ->
          Hashtbl.remove t.compiling key;
          Condition.broadcast t.compile_done))
    compile

(* Clean entry also yields to *waiting* faulted jobs, not just the
   active one: without that, continuous clean traffic keeps
   clean_active > 0 forever and a faulted job starves (classic
   reader-writer writer starvation). *)
let enter_clean t =
  Mutex.lock t.xmx;
  while t.fault_active || t.fault_waiting > 0 do
    Condition.wait t.xcv t.xmx
  done;
  t.clean_active <- t.clean_active + 1;
  Mutex.unlock t.xmx

let leave_clean t =
  Mutex.lock t.xmx;
  t.clean_active <- t.clean_active - 1;
  Condition.broadcast t.xcv;
  Mutex.unlock t.xmx

let enter_faulted t =
  Mutex.lock t.xmx;
  t.fault_waiting <- t.fault_waiting + 1;
  while t.fault_active || t.clean_active > 0 do
    Condition.wait t.xcv t.xmx
  done;
  t.fault_waiting <- t.fault_waiting - 1;
  t.fault_active <- true;
  Mutex.unlock t.xmx

let leave_faulted t =
  Mutex.lock t.xmx;
  t.fault_active <- false;
  Condition.broadcast t.xcv;
  Mutex.unlock t.xmx

let solve t job =
  let { spec; jbackend; jconfig; reps; _ } = job in
  let key =
    Jit.cache_key_hex ~config:jconfig ~reps jbackend ~shape:spec.Gen.shape
      spec.Gen.group
  in
  let kernel =
    coalesced_compile t ~key (fun () ->
        if job.fault <> "" then
          (* Unsupervised on purpose: an injected fault must reach the
             request boundary as an ERROR, not heal by failover. *)
          Jit.compile_time_tiled ~config:jconfig ~reps jbackend
            ~shape:spec.Gen.shape spec.Gen.group
        else if reps = 1 then
          Supervise.compile ~config:jconfig jbackend ~shape:spec.Gen.shape
            spec.Gen.group
        else
          Jit.compile_time_tiled ~config:jconfig ~reps jbackend
            ~shape:spec.Gen.shape spec.Gen.group)
  in
  let grids = Gen.build_grids spec in
  Slo.time t.solve_series (fun () ->
      kernel.Sf_backends.Kernel.run ~params:spec.Gen.params grids);
  Guard.scan_grids ~mode:Guard.Sample grids (Sf_mesh.Grids.names grids);
  grids

let execute t job =
  let enter, leave =
    if job.fault = "" then (enter_clean, leave_clean)
    else (enter_faulted, leave_faulted)
  in
  enter t;
  Fun.protect
    ~finally:(fun () -> leave t)
    (fun () ->
      Supervisor.protect
        ~label:(Printf.sprintf "req%d" job.ticket)
        (fun () ->
          if job.fault <> "" then begin
            Fault.arm_exn job.fault;
            Fun.protect
              ~finally:(fun () -> Fault.disarm ())
              (fun () -> solve t job)
          end
          else solve t job))

let run_job t job =
  let outcome = execute t job in
  let elapsed = Trace.now_us () -. job.enqueued_us in
  Slo.observe t.lat_series elapsed;
  Session.finish job.session;
  let reply =
    match outcome with
    | Ok grids ->
        Session.note_completed job.session;
        P.Result
          { ticket = job.ticket; elapsed_us = elapsed;
            grids = grids_payload grids }
    | Error (v : Supervisor.verdict) ->
        Session.note_errored job.session;
        P.Rejected { ticket = job.ticket; code = v.code; message = v.message }
  in
  Mutex.protect t.sched (fun () ->
      if Hashtbl.mem t.orphaned job.ticket then begin
        (* the submitting connection died mid-solve; nobody can ever
           poll this reply — drop it instead of holding the grids *)
        Hashtbl.remove t.orphaned job.ticket;
        Hashtbl.remove t.tickets job.ticket
      end
      else
        Hashtbl.replace t.tickets job.ticket
          (Done (Session.tenant job.session, reply)))

(* A connection died with tickets outstanding: free what nobody will
   ever poll.  Done replies are dropped now, queued jobs are cancelled
   before they waste an executor, running jobs are marked so [run_job]
   drops their reply on completion. *)
let release_tickets t tickets =
  if Hashtbl.length tickets > 0 then
    Mutex.protect t.sched (fun () ->
        Hashtbl.iter
          (fun ticket () ->
            match Hashtbl.find_opt t.tickets ticket with
            | None -> ()
            | Some (Done _) -> Hashtbl.remove t.tickets ticket
            | Some (Running _) -> Hashtbl.replace t.orphaned ticket ()
            | Some (Queued job) ->
                (match
                   Hashtbl.find_opt t.queues (Session.tenant job.session)
                 with
                | None -> ()
                | Some q ->
                    let keep =
                      Queue.fold
                        (fun acc j ->
                          if j.ticket = ticket then acc else j :: acc)
                        [] q
                    in
                    Queue.clear q;
                    List.iter (fun j -> Queue.push j q) (List.rev keep));
                t.queued <- t.queued - 1;
                Slo.gauge_set t.depth_gauge t.queued;
                Session.finish job.session;
                Hashtbl.remove t.tickets ticket)
          tickets)

let pick_is_empty t =
  List.for_all
    (fun tenant ->
      match Hashtbl.find_opt t.queues tenant with
      | Some q -> Queue.is_empty q
      | None -> true)
    t.rr

let executor t () =
  let rec loop () =
    Mutex.lock t.sched;
    while (not t.stop_flag) && pick_is_empty t do
      Condition.wait t.work t.sched
    done;
    if t.stop_flag then Mutex.unlock t.sched
    else
      match pick_job t with
      | None ->
          Mutex.unlock t.sched;
          loop ()
      | Some job ->
          t.queued <- t.queued - 1;
          Slo.gauge_set t.depth_gauge t.queued;
          Hashtbl.replace t.tickets job.ticket (Running job);
          Mutex.unlock t.sched;
          run_job t job;
          loop ()
  in
  loop ()

(* ------------------------------------------------------------- creation *)

let create ?(config = default_config) () =
  register_classifiers ();
  (* a reply racing a client hang-up must surface as EPIPE
     (-> Protocol.Closed, connection death), never as a SIGPIPE that
     takes the whole daemon down *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let t =
    {
      cfg = config;
      sched = Mutex.create ();
      work = Condition.create ();
      queues = Hashtbl.create 8;
      rr = [];
      tickets = Hashtbl.create 64;
      orphaned = Hashtbl.create 8;
      next_ticket = 1;
      queued = 0;
      stop_flag = false;
      compiling = Hashtbl.create 8;
      compile_done = Condition.create ();
      listen_fd = None;
      xmx = Mutex.create ();
      xcv = Condition.create ();
      clean_active = 0;
      fault_active = false;
      fault_waiting = 0;
      n_busy = 0;
      n_coalesced = 0;
      executors = [];
      started_us = Trace.now_us ();
      lat_series = Slo.series "serve.request_us";
      solve_series = Slo.series "serve.solve_us";
      depth_gauge = Slo.gauge "serve.queue_depth";
    }
  in
  let n = max 1 config.threads in
  t.executors <- List.init n (fun _ -> Thread.create (executor t) ());
  t

let stop t =
  let fd =
    Mutex.protect t.sched (fun () ->
        t.stop_flag <- true;
        (* executors will never pick these up once stop_flag is set:
           give every queued ticket a terminal reply instead of
           silently dropping work that was already Accepted *)
        Hashtbl.iter
          (fun _ q ->
            Queue.iter
              (fun job ->
                Session.finish job.session;
                Hashtbl.replace t.tickets job.ticket
                  (Done
                     ( Session.tenant job.session,
                       P.Rejected
                         {
                           ticket = job.ticket;
                           code = P.err_proto;
                           message = "server shutting down";
                         } )))
              q;
            Queue.clear q)
          t.queues;
        t.queued <- 0;
        Slo.gauge_set t.depth_gauge 0;
        Condition.broadcast t.work;
        Condition.broadcast t.compile_done;
        let fd = t.listen_fd in
        t.listen_fd <- None;
        fd)
  in
  Mutex.protect t.xmx (fun () -> Condition.broadcast t.xcv);
  (* shutdown() (not just close) — a thread blocked in accept() on this
     socket only wakes when the socket itself is shut down. *)
  Option.iter
    (fun fd ->
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    fd

let join t = List.iter Thread.join t.executors

(* ------------------------------------------------------------ admission *)

let resolve_backend t = function
  | "" -> Ok t.cfg.backend
  | name -> (
      match Jit.backend_of_string name with
      | Some b -> Ok b
      | None -> Error (Printf.sprintf "unknown backend %S" name))

let reject ?(ticket = 0) code message = P.Rejected { ticket; code; message }

let handle_submit t session (s : P.submit) =
  (* workers/reps arrive as raw u32s (up to 0xFFFFFFFF) and flow toward
     the pool and the time-tiled JIT: bound them *before* anything is
     parsed, compiled or charged against a quota.  0 means "server
     default" for both. *)
  if s.P.workers > t.cfg.max_workers then
    reject P.err_parse
      (Printf.sprintf "SUBMIT.workers: %d exceeds limit %d" s.P.workers
         t.cfg.max_workers)
  else if s.P.reps > t.cfg.max_reps then
    reject P.err_parse
      (Printf.sprintf "SUBMIT.reps: %d exceeds limit %d" s.P.reps
         t.cfg.max_reps)
  else if String.length s.P.program > t.cfg.max_program_bytes then
    reject P.err_too_large
      (Printf.sprintf "program of %d bytes exceeds limit %d"
         (String.length s.P.program) t.cfg.max_program_bytes)
  else
    match Corpus.of_string ~label:"served" s.P.program with
    | Error m -> reject P.err_parse m
    | Ok spec -> (
        match resolve_backend t s.P.backend with
        | Error m -> reject P.err_parse m
        | Ok jbackend -> (
            let fault_check =
              if s.P.fault = "" then Ok ()
              else
                match Fault.parse s.P.fault with
                | Ok _ -> Ok ()
                | Error m -> Error m
            in
            match fault_check with
            | Error m -> reject P.err_parse ("fault spec: " ^ m)
            | Ok () ->
                let reps = max 1 s.P.reps in
                let workers =
                  if s.P.workers > 0 then s.P.workers else t.cfg.workers
                in
                let jconfig = { Config.default with Config.workers } in
                let cells = Ivec.product spec.Gen.shape * reps in
                let tenant = Session.tenant session in
                Mutex.protect t.sched (fun () ->
                    if t.stop_flag then
                      reject P.err_proto "server shutting down"
                    else if t.queued >= t.cfg.queue_cap then begin
                      t.n_busy <- t.n_busy + 1;
                      P.Busy { queue_depth = t.queued }
                    end
                    else
                      match Session.admit session ~cells with
                      | Error (code, m) -> reject code m
                      | Ok () ->
                          let ticket = t.next_ticket in
                          t.next_ticket <- ticket + 1;
                          let job =
                            {
                              ticket;
                              session;
                              spec;
                              jbackend;
                              jconfig;
                              reps;
                              fault = s.P.fault;
                              enqueued_us = Trace.now_us ();
                            }
                          in
                          let q =
                            match Hashtbl.find_opt t.queues tenant with
                            | Some q -> q
                            | None ->
                                let q = Queue.create () in
                                Hashtbl.add t.queues tenant q;
                                t.rr <- t.rr @ [ tenant ];
                                q
                          in
                          Queue.push job q;
                          t.queued <- t.queued + 1;
                          Slo.gauge_set t.depth_gauge t.queued;
                          Hashtbl.replace t.tickets ticket (Queued job);
                          Condition.signal t.work;
                          P.Accepted { ticket })))

let handle_poll t tenant ticket =
  Mutex.protect t.sched (fun () ->
      match Hashtbl.find_opt t.tickets ticket with
      | None -> reject P.err_proto (Printf.sprintf "unknown ticket %d" ticket)
      | Some st -> (
          let owner =
            match st with
            | Queued j | Running j -> Session.tenant j.session
            | Done (owner, _) -> owner
          in
          if owner <> tenant then
            reject P.err_proto (Printf.sprintf "ticket %d is not yours" ticket)
          else
            match st with
            | Queued _ -> P.Pending { ticket; running = false }
            | Running _ -> P.Pending { ticket; running = true }
            | Done (_, reply) ->
                Hashtbl.remove t.tickets ticket;
                reply))

(* ---------------------------------------------------------------- stats *)

let stats_json t =
  let num i = Json.Num (float_of_int i) in
  let hits, misses = Jit.cache_stats () in
  let hit_rate =
    if hits + misses = 0 then 0.
    else float_of_int hits /. float_of_int (hits + misses)
  in
  let busy, coalesced, depth, tickets =
    Mutex.protect t.sched (fun () ->
        (t.n_busy, t.n_coalesced, t.queued, Hashtbl.length t.tickets))
  in
  let series =
    List.map
      (fun (s : Slo.summary) ->
        Json.Obj
          [
            ("name", Json.Str s.Slo.sname);
            ("n", num s.Slo.n);
            ("p50_us", Json.Num s.Slo.p50);
            ("p90_us", Json.Num s.Slo.p90);
            ("p99_us", Json.Num s.Slo.p99);
            ("max_us", Json.Num s.Slo.smax);
            ("mean_us", Json.Num s.Slo.smean);
          ])
      (Slo.all ())
  in
  let tenants =
    List.map
      (fun (s : Session.stats) ->
        Json.Obj
          [
            ("tenant", Json.Str s.Session.s_tenant);
            ("inflight", num s.Session.s_inflight);
            ("submitted", num s.Session.s_submitted);
            ("completed", num s.Session.s_completed);
            ("errored", num s.Session.s_errored);
            ("rejected", num s.Session.s_rejected);
            ("cells_used", num s.Session.s_cells_used);
          ])
      (Session.all_stats ())
  in
  Json.to_string
    (Json.Obj
       [
         ("server", Json.Str "sfserved");
         ("protocol", num P.version);
         ("uptime_us", Json.Num (Trace.now_us () -. t.started_us));
         ("busy_rejections", num busy);
         ("coalesced_compiles", num coalesced);
         ( "jit",
           Json.Obj
             [
               ("hits", num hits);
               ("misses", num misses);
               ("hit_rate", Json.Num hit_rate);
             ] );
         ( "queue",
           Json.Obj
             [
               ("depth", num depth);
               ("hwm", num (Slo.gauge_hwm t.depth_gauge));
               ("tickets", num tickets);
             ] );
         ( "native",
           let n = Native.stats () in
           Json.Obj
             [
               ("native_cells", num n.Native.native_cells);
               ("row_cells", num n.Native.row_cells);
               ("native_share", Json.Num (Native.native_share n));
               ("structures", num n.Native.structures);
               ("native_structures", num n.Native.native_structures);
               ("promotions", num n.Native.promotions);
               ("disk_hits", num n.Native.disk_hits);
               ("builds", num n.Native.builds);
               ("failures", num n.Native.failures);
               ( "fallback",
                 match n.Native.fallback with Some r -> Json.Str r | None -> Json.Null );
             ] );
         ("series", Json.Arr series);
         ("tenants", Json.Arr tenants);
       ])

(* ----------------------------------------------------------- connections *)

let granted_caps t requested =
  let mask = ref (P.cap_submit lor P.cap_poll lor P.cap_stats lor P.cap_coalesce) in
  if t.cfg.allow_faults then mask := !mask lor P.cap_faults;
  if t.cfg.allow_shutdown then mask := !mask lor P.cap_shutdown;
  requested land !mask

let serve_pair t in_fd out_fd =
  let send r = P.write_reply out_fd r in
  (* tickets this connection created and has not yet claimed; reaped on
     disconnect so an abandoned Done reply (holding full result grids)
     cannot accumulate in a long-lived daemon *)
  let conn_tickets = Hashtbl.create 8 in
  let serve () =
    match P.read_request in_fd with
    | Ok (Some (P.Hello { version; tenant; caps }))
      when version = P.version && tenant <> "" ->
        let granted = granted_caps t caps in
        send
          (P.Welcome
             { version = P.version; caps = granted; server = "sfserved/1" });
        let session = Session.find_or_create ~quota:t.cfg.quota tenant in
        let has c = granted land c <> 0 in
        let rec loop () =
          match P.read_request in_fd with
          | Ok None -> ()
          | Error m -> send (reject P.err_proto m)
          | Ok (Some req) -> (
              match req with
              | P.Hello _ ->
                  send (reject P.err_proto "duplicate HELLO");
                  loop ()
              | P.Submit _ when not (has P.cap_submit) ->
                  send (reject P.err_proto "submit capability not granted");
                  loop ()
              | P.Submit s when s.P.fault <> "" && not (has P.cap_faults) ->
                  send (reject P.err_proto "faults capability not granted");
                  loop ()
              | P.Submit s ->
                  let r = handle_submit t session s in
                  (match r with
                  | P.Accepted { ticket } ->
                      Hashtbl.replace conn_tickets ticket ()
                  | _ -> ());
                  send r;
                  loop ()
              | P.Poll { ticket } when has P.cap_poll ->
                  let r = handle_poll t tenant ticket in
                  (match r with
                  | (P.Result { ticket = tk; _ } | P.Rejected { ticket = tk; _ })
                    when tk = ticket ->
                      Hashtbl.remove conn_tickets ticket
                  | _ -> ());
                  send r;
                  loop ()
              | P.Poll _ ->
                  send (reject P.err_proto "poll capability not granted");
                  loop ()
              | P.Stats when has P.cap_stats ->
                  send (P.Stats_reply { json = stats_json t });
                  loop ()
              | P.Stats ->
                  send (reject P.err_proto "stats capability not granted");
                  loop ()
              | P.Shutdown when has P.cap_shutdown ->
                  send P.Bye;
                  stop t
              | P.Shutdown ->
                  send (reject P.err_proto "shutdown capability not granted");
                  loop ())
        in
        loop ()
    | Ok (Some (P.Hello { version; _ })) when version <> P.version ->
        send
          (reject P.err_proto
             (Printf.sprintf "protocol version %d, server speaks %d" version
                P.version))
    | Ok (Some (P.Hello _)) -> send (reject P.err_proto "empty tenant name")
    | Ok (Some _) -> send (reject P.err_proto "first message must be HELLO")
    | Ok None -> ()
    | Error m -> ( try send (reject P.err_proto m) with _ -> ())
  in
  Fun.protect
    ~finally:(fun () -> release_tickets t conn_tickets)
    (fun () -> try serve () with P.Closed -> ())

let serve_fd t fd = serve_pair t fd fd

let listen_unix t ~path =
  (match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      (* unlink only a *stale* socket: clobbering a live one would
         silently sever a running daemon's listener *)
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        Fun.protect
          ~finally:(fun () ->
            try Unix.close probe with Unix.Unix_error _ -> ())
          (fun () ->
            match Unix.connect probe (Unix.ADDR_UNIX path) with
            | () -> true
            | exception
                Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
                false)
      in
      if live then
        failwith
          (Printf.sprintf "socket %s: a server is already listening" path)
      else Unix.unlink path
  | _ -> failwith (Printf.sprintf "refusing to unlink %s: not a socket" path));
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  Mutex.protect t.sched (fun () -> t.listen_fd <- Some fd);
  let rec accept_loop () =
    match Unix.accept fd with
    | conn, _ ->
        ignore
          (Thread.create
             (fun () ->
               Fun.protect
                 ~finally:(fun () ->
                   try Unix.close conn with Unix.Unix_error _ -> ())
                 (fun () -> try serve_fd t conn with _ -> ()))
             ());
        if not (stopped t) then accept_loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    | exception Unix.Unix_error _ ->
        (* stop() closed the listening socket under us *)
        ()
  in
  accept_loop ();
  Mutex.protect t.sched (fun () ->
      match t.listen_fd with
      | Some fd ->
          t.listen_fd <- None;
          (try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ());
  if Sys.file_exists path then try Unix.unlink path with Sys_error _ -> ()
