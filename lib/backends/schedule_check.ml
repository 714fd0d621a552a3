open Snowflake
open Sf_analysis

type conflict = {
  first : int;
  second : int;
  first_label : string;
  second_label : string;
  grid : string;
  kind : string;
}

(* merge duplicate grid keys, preserving first-occurrence order *)
let group_lats assocs =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (g, lats) ->
      (match Hashtbl.find_opt tbl g with
      | None -> order := g :: !order
      | Some _ -> ());
      Hashtbl.replace tbl g
        (Option.value ~default:[] (Hashtbl.find_opt tbl g) @ lats))
    assocs;
  List.rev_map (fun g -> (g, Hashtbl.find tbl g)) !order

(* every grid a task writes (reads), imaged over all of its tiles; a task
   touching one grid through several members or maps contributes the union
   of their images under one key *)
let writes_of (t : Plan.task) =
  group_lats
    (List.map
       (fun (s : Stencil.t) ->
         ( s.Stencil.output,
           List.map (Footprint.affine_image s.Stencil.out_map) t.Plan.tiles ))
       t.Plan.members)

let reads_of (t : Plan.task) =
  group_lats
    (List.concat_map
       (fun (s : Stencil.t) ->
         List.map
           (fun (g, m) -> (g, List.map (Footprint.affine_image m) t.Plan.tiles))
           (Stencil.reads s))
       t.Plan.members)

(* Exhaustive conflict collection.  Tasks are bucketed on grid name first:
   every conflict involves some task's written grid, so only writer x
   writer and writer x reader pairs of the same grid ever reach the
   (expensive) lattice intersection.  Overlap inside one task is never a
   conflict: its members and tiles run sequentially. *)
let wave_conflicts (tasks : Plan.task list) =
  let arr = Array.of_list tasks in
  let n = Array.length arr in
  let writes = Array.map writes_of arr in
  let reads = Array.map reads_of arr in
  let push tbl g i =
    Hashtbl.replace tbl g
      (i :: Option.value ~default:[] (Hashtbl.find_opt tbl g))
  in
  let writers : (string, int list) Hashtbl.t = Hashtbl.create 16 in
  let readers : (string, int list) Hashtbl.t = Hashtbl.create 16 in
  for i = n - 1 downto 0 do
    List.iter (fun (g, _) -> push writers g i) writes.(i);
    List.iter (fun (g, _) -> push readers g i) reads.(i)
  done;
  let conflicts = ref [] in
  let add i j grid kind =
    let i, j, kind =
      if i <= j then (i, j, kind)
      else
        ( j,
          i,
          match kind with
          | "write/read" -> "read/write"
          | "read/write" -> "write/read"
          | k -> k )
    in
    conflicts :=
      {
        first = i;
        second = j;
        first_label = Plan.label arr.(i);
        second_label = Plan.label arr.(j);
        grid;
        kind;
      }
      :: !conflicts
  in
  Hashtbl.iter
    (fun g ws ->
      let wlats i = List.assoc g writes.(i) in
      let rec ww = function
        | [] -> ()
        | i :: rest ->
            List.iter
              (fun j ->
                if Footprint.lattice_lists_intersect (wlats i) (wlats j) then
                  add i j g "write/write")
              rest;
            ww rest
      in
      ww ws;
      List.iter
        (fun w ->
          match Hashtbl.find_opt readers g with
          | None -> ()
          | Some rs ->
              List.iter
                (fun r ->
                  if r <> w then
                    let rlats = List.assoc g reads.(r) in
                    if Footprint.lattice_lists_intersect (wlats w) rlats then
                      add w r g "write/read")
                rs)
        ws)
    writers;
  List.sort_uniq compare !conflicts

let plan_conflicts (plan : Plan.t) =
  List.mapi
    (fun w wave -> (w, wave_conflicts (List.concat_map Plan.units wave)))
    plan.Plan.waves
  |> List.filter (fun (_, cs) -> cs <> [])

let conflict_to_string c =
  Printf.sprintf "tasks %d (%s) and %d (%s) conflict: %s on grid %s" c.first
    c.first_label c.second c.second_label c.kind c.grid

(* ------------------------------------------------------- certification *)

let backend_name = function `Openmp -> "openmp" | `Opencl -> "opencl"

let stencil_index group label =
  let rec find i = function
    | [] -> None
    | (s : Stencil.t) :: rest ->
        if String.equal s.Stencil.label label then Some i else find (i + 1) rest
  in
  find 0 (Group.stencils group)

let certify config ~shape ~backend group =
  let bname = backend_name backend in
  let overrides =
    List.filter_map
      (fun label ->
        match stencil_index group label with
        | None -> None
        | Some index ->
            let s = List.nth (Group.stencils group) index in
            if Dependence.point_parallel ~shape s then None
            else
              Some
                (Diagnostics.make ~code:"SF022"
                   ~severity:Diagnostics.Warning
                   ~loc:
                     (Srcloc.stencil ~group:group.Group.label ~index label)
                   ~hint:
                     "remove the label from Config.force_parallel unless \
                      the race is provably benign"
                   (Printf.sprintf
                      "stencil is forced parallel although the analysis \
                       found loop-carried dependences; the %s plan tiles it \
                       concurrently"
                      bname)))
      (List.sort_uniq String.compare config.Config.force_parallel)
  in
  (* SF021 is proven on the per-stencil plan (fusion forced off) *)
  let base =
    Plan.build { config with Config.fusion = false } ~shape ~backend group
  in
  let races =
    List.concat_map
      (fun (w, cs) ->
        List.map
          (fun c ->
            let loc =
              match stencil_index group c.first_label with
              | Some index ->
                  Srcloc.stencil ~group:group.Group.label ~index c.first_label
              | None -> Srcloc.stencil ~group:group.Group.label c.first_label
            in
            Diagnostics.make ~code:"SF021" ~severity:Diagnostics.Error ~loc
              ~hint:
                "the tasks need a barrier between them; if a \
                 Config.force_parallel override is set, it is wrong"
              (Printf.sprintf "%s plan, wave %d: %s" bname w
                 (conflict_to_string c)))
          cs)
      (plan_conflicts base)
  in
  (* with fusion on, the backend executes the fused plan — re-prove it
     race-free at fused-task granularity (only when something actually
     fused: otherwise it is the plan already checked) *)
  let fused =
    let plan =
      if config.Config.fusion then Plan.build config ~shape ~backend group
      else base
    in
    if Fusion.fused_count plan.Plan.clusters = 0 then []
    else
      List.concat_map
        (fun (w, cs) ->
          List.map
            (fun c ->
              Diagnostics.make ~code:"SF023" ~severity:Diagnostics.Error
                ~loc:(Srcloc.group group.Group.label)
                ~hint:
                  "the cluster is not cofusible under this configuration; \
                   disable fusion for this group or split the cluster"
                (Printf.sprintf "%s fused plan, wave %d: %s" bname w
                   (conflict_to_string c)))
            cs)
        (plan_conflicts plan)
  in
  overrides @ races @ fused

(* ------------------------------------------------ time-tile certification *)

let certify_timetile _config ~shape group =
  List.map
    (fun (label, reason) ->
      Diagnostics.make ~code:"SF025" ~severity:Diagnostics.Error
        ~loc:
          (match stencil_index group label with
          | Some index -> Srcloc.stencil ~group:group.Group.label ~index label
          | None -> Srcloc.stencil ~group:group.Group.label label)
        ~hint:
          "time-tiling needs identity writes, point-parallel sub-steps and \
           unit-scale reads of group-written grids; run the smoother \
           untiled (Config.time_tile = 1)"
        (Printf.sprintf "group cannot be time-tiled: stencil %s" reason))
    (Timetile.illegalities ~shape group)

let certify_timetile_plan config ~shape (p : Timetile.plan) =
  let base = certify_timetile config ~shape p.Timetile.group in
  let req = Timetile.required_skew p.Timetile.group in
  if p.Timetile.skew >= req then base
  else
    Diagnostics.make ~code:"SF024" ~severity:Diagnostics.Error
      ~loc:(Srcloc.group p.Timetile.group.Group.label)
      ~hint:
        (Printf.sprintf "raise the skew to at least %d (the maximum axis-0 \
                         dependence distance of the group)" req)
      (Printf.sprintf
         "time-tile skew %d is below the dependence slope %d: slab seams \
          would read stale or future values"
         p.Timetile.skew req)
    :: base
