open Snowflake

type t = { cells : int; flops : int; bytes : int }

(* operator-node count *)
let rec expr_ops = function
  | Expr.Const _ | Expr.Param _ | Expr.Read _ -> 0
  | Expr.Neg a -> 1 + expr_ops a
  | Expr.Add (a, b) | Expr.Sub (a, b) | Expr.Mul (a, b) | Expr.Div (a, b) ->
      1 + expr_ops a + expr_ops b

let of_stencil ~shape (s : Stencil.t) =
  let cells = Domain.npoints_union (Domain.resolve ~shape s.Stencil.domain) in
  (* the operators a cell evaluates: parameter-only subtrees are folded
     once per invocation, whatever the parameters' values *)
  let flops_per_cell = expr_ops (Expr.fold ~params:(fun _ -> 1.0) s.Stencil.expr) in
  let read_cells =
    List.fold_left
      (fun acc (_, lattices) -> acc + Domain.npoints_union lattices)
      0
      (Sf_analysis.Footprint.read_footprint ~shape s)
  in
  let out_grid, write_lattices =
    Sf_analysis.Footprint.write_footprint ~shape s
  in
  let write_factor =
    if List.mem out_grid (Stencil.grids_read s) then 1 else 2
  in
  let write_cells = Domain.npoints_union write_lattices in
  {
    cells;
    flops = flops_per_cell * cells;
    bytes = 8 * (read_cells + (write_factor * write_cells));
  }

(* ----------------------------------------------- fused-sweep bytes model

   [of_group] charges every stencil its full footprint, so a fused
   cluster (or a time-tiled stack of sweeps) that streams a grid once
   gets double-charged for every shared read.  The single-pass model
   below counts each distinct grid once: all lattices a grid contributes
   (reads and writes, across every member) are collapsed into their
   bounding box — exactly the contiguous range a streaming pass touches;
   a red/black pair of half-lattices collapses to the one full pass the
   fused sweep makes.  Grids that are only read cost one pass; grids that
   are written cost two (write-allocate + write-back, matching
   [of_stencil]'s write_factor). *)

let bbox_points lattices =
  match List.filter (fun r -> not (Domain.is_empty r)) lattices with
  | [] -> 0
  | first :: rest ->
      let lo = Array.copy first.Domain.rlo
      and hi = Array.copy first.Domain.rhi in
      List.iter
        (fun (r : Domain.resolved) ->
          Array.iteri (fun i v -> lo.(i) <- min lo.(i) v) r.Domain.rlo;
          Array.iteri (fun i v -> hi.(i) <- max hi.(i) v) r.Domain.rhi)
        rest;
      Array.fold_left ( * ) 1 (Array.mapi (fun i l -> max 0 (hi.(i) - l)) lo)

let of_fused ~shape (members : Stencil.t list) =
  let per_member = List.map (of_stencil ~shape) members in
  let cells = List.fold_left (fun acc c -> acc + c.cells) 0 per_member in
  let flops = List.fold_left (fun acc c -> acc + c.flops) 0 per_member in
  (* per distinct grid: every lattice it contributes, plus whether any
     member writes it *)
  let tbl : (string, Domain.resolved list ref * bool ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let entry g =
    match Hashtbl.find_opt tbl g with
    | Some e -> e
    | None ->
        let e = (ref [], ref false) in
        Hashtbl.replace tbl g e;
        e
  in
  List.iter
    (fun s ->
      List.iter
        (fun (g, lattices) ->
          let lats, _ = entry g in
          lats := lattices @ !lats)
        (Sf_analysis.Footprint.read_footprint ~shape s);
      let out_grid, write_lattices =
        Sf_analysis.Footprint.write_footprint ~shape s
      in
      let lats, written = entry out_grid in
      lats := write_lattices @ !lats;
      written := true)
    members;
  let bytes =
    Hashtbl.fold
      (fun _ (lats, written) acc ->
        acc + (bbox_points !lats * if !written then 2 else 1))
      tbl 0
    * 8
  in
  { cells; flops; bytes }

let of_clusters ~shape (clusters : Stencil.t list list) =
  List.fold_left
    (fun acc members ->
      let c =
        match members with
        | [ s ] -> of_stencil ~shape s
        | _ -> of_fused ~shape members
      in
      {
        cells = acc.cells + c.cells;
        flops = acc.flops + c.flops;
        bytes = acc.bytes + c.bytes;
      })
    { cells = 0; flops = 0; bytes = 0 }
    clusters

let of_timetile ~shape ~reps (group : Group.t) =
  (* k skewed sweeps touch each slab column k times while it is hot:
     arithmetic scales with k, compulsory traffic does not *)
  let one = of_fused ~shape (Group.stencils group) in
  { cells = reps * one.cells; flops = reps * one.flops; bytes = one.bytes }

let of_group ~shape (group : Group.t) =
  List.fold_left
    (fun acc s ->
      let c = of_stencil ~shape s in
      {
        cells = acc.cells + c.cells;
        flops = acc.flops + c.flops;
        bytes = acc.bytes + c.bytes;
      })
    { cells = 0; flops = 0; bytes = 0 }
    (Group.stencils group)

let args t =
  [
    ("cells", Sf_trace.Trace.Int t.cells);
    ("flops", Sf_trace.Trace.Int t.flops);
    ("bytes", Sf_trace.Trace.Int t.bytes);
  ]
