(* Sequential micro-compilers: the reference interpreter and the
   strength-reduced "C-like" executor.  Both run stencils in program order,
   rects in union order, points row-major — the DSL's sequential
   semantics. *)

open Snowflake
module Fault = Sf_resilience.Fault

(* The "wave" fault site: consulted once per wave per kernel invocation,
   before the wave body runs.  Raise/Transient abort the wave (the
   supervisor's retry/failover absorbs them); Delay sleeps inside fire;
   poison kinds are handled at the "kernel" site, which knows the output
   grids.  Guarded by [armed] so disarmed runs never build the detail. *)
let wave_fault group i =
  if Fault.armed () then
    ignore
      (Fault.fire ~site:"wave"
         ~detail:(Printf.sprintf "%s/wave%d" group.Group.label i))

let compile_interp (_ : Config.t) ~shape (group : Group.t) =
  let shape = Array.copy shape in
  let plans =
    List.map
      (fun s -> (s, Domain.resolve ~shape s.Stencil.domain))
      (Group.stencils group)
  in
  let run ?(params = []) grids =
    let exec i (s, rects) =
      wave_fault group i;
      let params =
        Kernel.param_lookup
          ~loc:(Srcloc.stencil ~group:group.Group.label s.Stencil.label)
          params
      in
      Exec.validate_stencil grids ~shape s;
      List.iter (fun r -> Exec.run_rect_interp grids ~params s r) rects
    in
    (* sequential semantics: each stencil is its own wave *)
    if Sf_trace.Trace.on () then
      List.iteri
        (fun i ((s, rects) as plan) ->
          let module Trace = Sf_trace.Trace in
          Trace.span
            ~args:
              [
                ("group", Trace.Str group.Group.label);
                ("wave", Trace.Int i);
                ("stencil", Trace.Str s.Stencil.label);
                ("points", Trace.Int (Domain.npoints_union rects));
              ]
            Trace.Wave
            (Printf.sprintf "%s/wave%d" group.Group.label i)
            (fun () -> exec i plan))
        plans
    else List.iteri exec plans
  in
  Kernel.make ~name:group.Group.label ~backend:"interp"
    ~description:
      (Printf.sprintf "interp: %d stencil(s), sequential" (List.length plans))
    run

let compile_compiled (_ : Config.t) ~shape (group : Group.t) =
  let shape = Array.copy shape in
  let plans =
    List.map
      (fun s -> (s, Domain.resolve ~shape s.Stencil.domain))
      (Group.stencils group)
  in
  let cache = Run_cache.create () in
  let names = Group.grids group in
  let run ?(params = []) grids =
    (* runners stay grouped per stencil so each stencil can be traced as
       its own (sequential) wave *)
    let runners =
      Run_cache.get cache ~grids ~names ~params (fun () ->
          List.map
            (fun (s, rects) ->
              let lookup =
                Kernel.param_lookup
                  ~loc:
                    (Srcloc.stencil ~group:group.Group.label s.Stencil.label)
                  params
              in
              Exec.validate_stencil grids ~shape s;
              let instantiate = Exec.prepare_compiled grids ~params:lookup s in
              ( s.Stencil.label,
                Domain.npoints_union rects,
                List.map instantiate rects ))
            plans)
    in
    if Sf_trace.Trace.on () then
      List.iteri
        (fun i (label, points, thunks) ->
          let module Trace = Sf_trace.Trace in
          Trace.span
            ~args:
              [
                ("group", Trace.Str group.Group.label);
                ("wave", Trace.Int i);
                ("stencil", Trace.Str label);
                ("points", Trace.Int points);
              ]
            Trace.Wave
            (Printf.sprintf "%s/wave%d" group.Group.label i)
            (fun () ->
              wave_fault group i;
              List.iter (fun thunk -> thunk ()) thunks))
        runners
    else
      List.iteri
        (fun i (_, _, thunks) ->
          wave_fault group i;
          List.iter (fun thunk -> thunk ()) thunks)
        runners
  in
  Kernel.make ~name:group.Group.label ~backend:"compiled"
    ~description:
      (Printf.sprintf "compiled: %d stencil(s), sequential"
         (List.length plans))
    run
