open Sf_util
open Sf_mesh
open Snowflake

let run_rect_interp grids ~params (s : Stencil.t) rect =
  let out = Grids.find grids s.Stencil.output in
  let read g m p = Mesh.get (Grids.find grids g) (Affine.apply m p) in
  Domain.iter rect (fun p ->
      let v = Expr.eval s.Stencil.expr ~read:(fun g m -> read g m p) ~params in
      Mesh.set out (Affine.apply s.Stencil.out_map p) v)

(* ------------------------------------------------------------------- *)
(* Closure-compiled fallback: one slot per distinct (grid, map) pair    *)
(* with incrementally maintained flat indices.  Used for the rare       *)
(* non-polynomial expressions (e.g. a grid read in a denominator).      *)
(* ------------------------------------------------------------------- *)

type slot = { data : floatarray; base : int; inc : int array }

let make_slot (mesh : Mesh.t) (m : Affine.t) (rect : Domain.resolved) =
  let strides = Mesh.strides mesh in
  let n = Array.length strides in
  let origin = Affine.apply m rect.Domain.rlo in
  let base = Ivec.dot strides origin in
  let inc =
    Array.init n (fun i ->
        strides.(i) * m.Affine.scale.(i) * rect.Domain.rstride.(i))
  in
  { data = Mesh.data mesh; base; inc }

let compile_expr expr ~params ~slot_index ~cur =
  let rec go = function
    | Expr.Const c -> fun () -> c
    | Expr.Param p ->
        let v = params p in
        fun () -> v
    | Expr.Read (g, m) ->
        let j, data = slot_index (g, m) in
        fun () -> Float.Array.unsafe_get data (Array.unsafe_get cur j)
    | Expr.Neg a ->
        let fa = go a in
        fun () -> -.fa ()
    | Expr.Add (a, b) ->
        let fa = go a and fb = go b in
        fun () -> fa () +. fb ()
    | Expr.Sub (a, b) ->
        let fa = go a and fb = go b in
        fun () -> fa () -. fb ()
    | Expr.Mul (a, b) ->
        let fa = go a and fb = go b in
        fun () -> fa () *. fb ()
    | Expr.Div (a, b) ->
        let fa = go a and fb = go b in
        fun () -> fa () /. fb ()
  in
  go expr

let run_rect_closure grids ~params (s : Stencil.t) rect =
  let cnt = Domain.counts rect in
  let n = Ivec.dims cnt in
  let reads = Stencil.reads s in
  let k = List.length reads in
  let slots =
    Array.of_list
      (List.map (fun (g, m) -> make_slot (Grids.find grids g) m rect) reads)
  in
  let out_slot =
    make_slot (Grids.find grids s.Stencil.output) s.Stencil.out_map rect
  in
  let cur = Array.make (max k 1) 0 in
  let slot_index (g, m) =
    let rec find j = function
      | [] -> assert false (* reads is exactly the list we indexed *)
      | (g', m') :: rest ->
          if String.equal g g' && Affine.equal m m' then (j, slots.(j).data)
          else find (j + 1) rest
    in
    find 0 reads
  in
  let eval = compile_expr s.Stencil.expr ~params ~slot_index ~cur in
  let out_data = out_slot.data in
  let inner = n - 1 in
  let inner_cnt = cnt.(inner) in
  let inner_incs = Array.map (fun sl -> sl.inc.(inner)) slots in
  let out_inner_inc = out_slot.inc.(inner) in
  let outer_total = ref 1 in
  for i = 0 to inner - 1 do
    outer_total := !outer_total * cnt.(i)
  done;
  let oidx = Array.make (max inner 1) 0 in
  for _row = 0 to !outer_total - 1 do
    for j = 0 to k - 1 do
      let sl = slots.(j) in
      let flat = ref sl.base in
      for i = 0 to inner - 1 do
        flat := !flat + (oidx.(i) * sl.inc.(i))
      done;
      cur.(j) <- !flat
    done;
    let out_flat = ref out_slot.base in
    for i = 0 to inner - 1 do
      out_flat := !out_flat + (oidx.(i) * out_slot.inc.(i))
    done;
    for _c = 0 to inner_cnt - 1 do
      Float.Array.unsafe_set out_data !out_flat (eval ());
      out_flat := !out_flat + out_inner_inc;
      for j = 0 to k - 1 do
        cur.(j) <- cur.(j) + inner_incs.(j)
      done
    done;
    let rec bump i =
      if i >= 0 then begin
        oidx.(i) <- oidx.(i) + 1;
        if oidx.(i) >= cnt.(i) then begin
          oidx.(i) <- 0;
          bump (i - 1)
        end
      end
    in
    bump (inner - 1)
  done

(* ------------------------------------------------------------------- *)
(* Polynomial fast path: a row evaluator.  Reads are grouped by (grid,  *)
(* scale); one flat counter per group tracks Σ strideᵢ·scaleᵢ·xᵢ, and   *)
(* each read is a constant delta off its group's counter.  The factored *)
(* polynomial (Polyform.factorize) compiles, once per kernel            *)
(* invocation, into passes that each fill a block of inner-axis rows:   *)
(* floats stay in registers inside a pass and only cross a closure      *)
(* boundary in a floatarray, so nothing is boxed per cell — the         *)
(* strength-reduced loops the emitted C would have.                     *)
(* ------------------------------------------------------------------- *)

(* The block a pass fills: [rows] consecutive inner-axis rows of [len]
   cells, results stored row-major in the scratch rows.  A running tile
   borrows one from its stencil's [prep.spare] and sets its geometry. *)
type block = {
  bufs : floatarray array;  (* a node at depth d accumulates in bufs.(d) *)
  gpos : int array;  (* read group g's flat position at the first cell *)
  ginc : int array;  (* its step to the next cell of a row *)
  grow : int array;  (* and to the next row of the block *)
  mutable rows : int;
  mutable len : int;
}

type pass = block -> unit

(* A read resolved against the grids: data array, group, constant delta. *)
type tap = { a : floatarray; g : int; d : int }

let get = Float.Array.unsafe_get
let set = Float.Array.unsafe_set
let[@inline] start b t r =
  Array.unsafe_get b.gpos t.g + t.d + (r * Array.unsafe_get b.grow t.g)

let[@inline] step b t = Array.unsafe_get b.ginc t.g

(* Row kernels: cells [c0..c1] of one scratch row, each read position
   [p] advancing by [i] per cell.  Every operand is an argument, so the
   loop keeps all of them in registers; [x *. 1.] unboxes a float
   argument once, outside the loop.  [init] starts each cell from [k] (the
   node's constant) instead of the running sum. *)
let lin2_row ~init dst c0 c1 k a0 p0 i0 w0 a1 p1 i1 w1 =
  let k = k *. 1. and w0 = w0 *. 1. and w1 = w1 *. 1. in
  let p0 = ref p0 and p1 = ref p1 in
  for c = c0 to c1 do
    let acc = if init then k else get dst c in
    set dst c (acc +. (w0 *. get a0 !p0) +. (w1 *. get a1 !p1));
    p0 := !p0 + i0;
    p1 := !p1 + i1
  done

let lin1_row ~init dst c0 c1 k a0 p0 i0 w0 =
  let k = k *. 1. and w0 = w0 *. 1. in
  let p0 = ref p0 in
  for c = c0 to c1 do
    let acc = if init then k else get dst c in
    set dst c (acc +. (w0 *. get a0 !p0));
    p0 := !p0 + i0
  done

(* [dst += r · tmp] *)
let factor_row dst tmp c0 c1 a p i =
  let p = ref p in
  for c = c0 to c1 do
    set dst c (get dst c +. (get a !p *. get tmp c));
    p := !p + i
  done

(* [dst += w·x·y], one quadratic monomial *)
let quad_row dst c0 c1 w ax px ix ay py iy =
  let w = w *. 1. in
  let px = ref px and py = ref py in
  for c = c0 to c1 do
    set dst c (get dst c +. (w *. get ax !px *. get ay !py));
    px := !px + ix;
    py := !py + iy
  done

let quad2_row dst c0 c1 w0 ax0 px0 ix0 ay0 py0 iy0 w1 ax1 px1 ix1 ay1 py1 iy1 =
  let w0 = w0 *. 1. and w1 = w1 *. 1. in
  let px0 = ref px0 and py0 = ref py0 and px1 = ref px1 and py1 = ref py1 in
  for c = c0 to c1 do
    set dst c
      (get dst c
      +. (w0 *. get ax0 !px0 *. get ay0 !py0)
      +. (w1 *. get ax1 !px1 *. get ay1 !py1));
    px0 := !px0 + ix0;
    py0 := !py0 + iy0;
    px1 := !px1 + ix1;
    py1 := !py1 + iy1
  done

(* [out[o], out[o + i], … = res[c0..c1]]: a finished row to the output *)
let store_row out o i res c0 c1 =
  let o = ref o in
  for c = c0 to c1 do
    set out !o (get res c);
    o := !o + i
  done

(* Passes: one row kernel per row of the block.  Linear taps are fused
   two per pass, as are residual quadratic monomials. *)
let lin2 ~depth ~init k t0 w0 t1 w1 : pass =
 fun b ->
  let dst = Array.unsafe_get b.bufs depth and len = b.len in
  for r = 0 to b.rows - 1 do
    lin2_row ~init dst (r * len) (((r + 1) * len) - 1) k
      t0.a (start b t0 r) (step b t0) w0 t1.a (start b t1 r) (step b t1) w1
  done

let lin1 ~depth ~init k t0 w0 : pass =
 fun b ->
  let dst = Array.unsafe_get b.bufs depth and len = b.len in
  for r = 0 to b.rows - 1 do
    lin1_row ~init dst (r * len) (((r + 1) * len) - 1) k
      t0.a (start b t0 r) (step b t0) w0
  done

let fill ~depth k : pass =
 fun b -> Float.Array.fill (Array.unsafe_get b.bufs depth) 0 (b.rows * b.len) k

(* [dst += r · sub]: the sub-polynomial fills [bufs.(depth+1)] first. *)
let factor ~depth t (sub : pass) : pass =
 fun b ->
  sub b;
  let dst = Array.unsafe_get b.bufs depth and len = b.len in
  let tmp = Array.unsafe_get b.bufs (depth + 1) in
  for r = 0 to b.rows - 1 do
    factor_row dst tmp (r * len) (((r + 1) * len) - 1) t.a (start b t r) (step b t)
  done

let quad ~depth (w, x, y) : pass =
 fun b ->
  let dst = Array.unsafe_get b.bufs depth and len = b.len in
  for r = 0 to b.rows - 1 do
    quad_row dst (r * len) (((r + 1) * len) - 1)
      w x.a (start b x r) (step b x) y.a (start b y r) (step b y)
  done

let quad2 ~depth (w0, x0, y0) (w1, x1, y1) : pass =
 fun b ->
  let dst = Array.unsafe_get b.bufs depth and len = b.len in
  for r = 0 to b.rows - 1 do
    quad2_row dst (r * len) (((r + 1) * len) - 1)
      w0 x0.a (start b x0 r) (step b x0) y0.a (start b y0 r) (step b y0)
      w1 x1.a (start b x1 r) (step b x1) y1.a (start b y1 r) (step b y1)
  done

(* Any other residual monomial (degree 3-4; rare outside generated
   programs): [dst += ((w·r₁)·r₂)…], positions recomputed per cell. *)
let mono ~depth w (taps : tap array) : pass =
 fun b ->
  let dst = Array.unsafe_get b.bufs depth and len = b.len in
  for r = 0 to b.rows - 1 do
    for c = 0 to len - 1 do
      let v = ref w in
      for t = 0 to Array.length taps - 1 do
        let tp = Array.unsafe_get taps t in
        v := !v *. get tp.a (start b tp r + (c * step b tp))
      done;
      let o = (r * len) + c in
      set dst o (get dst o +. !v)
    done
  done

let seq (passes : pass list) : pass =
  match passes with
  | [ p ] -> p
  | passes ->
      let passes = Array.of_list passes in
      fun b ->
        for i = 0 to Array.length passes - 1 do
          (Array.unsafe_get passes i) b
        done

(* Compile one factored node into a pass writing [bufs.(depth)],
   returning it with the number of scratch rows the subtree needs.  The
   per-cell association order is exactly {!Polyform.eval_factored}'s:
   constant, linear taps left to right, factors, then residual monomials
   one by one — so the executor is bitwise equal to that reference. *)
let rec compile_node ~tap ~depth (f : Polyform.factored) : pass * int =
  let k = f.Polyform.fconst in
  let rec linear ~init = function
    | [] -> if init then [ fill ~depth k ] else []
    | [ (r0, w0) ] -> [ lin1 ~depth ~init k (tap r0) w0 ]
    | (r0, w0) :: (r1, w1) :: rest ->
        lin2 ~depth ~init k (tap r0) w0 (tap r1) w1 :: linear ~init:false rest
  in
  let factors, need =
    List.fold_left
      (fun (acc, need) (r, sub) ->
        let sub, n = compile_node ~tap ~depth:(depth + 1) sub in
        (factor ~depth (tap r) sub :: acc, max need (n + 1)))
      ([], 1) f.Polyform.ffactors
  in
  let quadratic (m : Polyform.mono) =
    match m.Polyform.reads with
    | [ x; y ] -> Some (m.Polyform.coeff, tap x, tap y)
    | _ -> None
  in
  let rec residual = function
    | [] -> []
    | (_, Some q0) :: (_, Some q1) :: rest -> quad2 ~depth q0 q1 :: residual rest
    | (_, Some q) :: rest -> quad ~depth q :: residual rest
    | ((m : Polyform.mono), None) :: rest ->
        mono ~depth m.Polyform.coeff (Array.of_list (List.map tap m.Polyform.reads))
        :: residual rest
  in
  ( seq
      (linear ~init:true f.Polyform.flinear
      @ List.rev factors
      @ residual (List.map (fun m -> (m, quadratic m)) f.Polyform.fresidual)),
    need )

type prep = {
  gmeta : (int array (* mesh strides *) * int array (* scale *)) array;
  root : pass;
  depth : int;  (* scratch rows per block *)
  out_reads : (int * int) list;
      (* (group, delta) of every read whose data array is physically the
         output's: the in-place read-after-write hazards *)
  out_data : floatarray;
  out_strides : int array;
  out_map : Affine.t;
  spare : block Atomic.t;
      (* the block left by the last finished tile, or [no_block]: tiles of
         one stencil share scratch instead of each owning a copy *)
  native : Native.prepared;  (* the same stencil as gcc-compiled C *)
  tiered : bool;  (* false: the row evaluator only *)
}

let no_block = { bufs = [||]; gpos = [||]; ginc = [||]; grow = [||]; rows = 0; len = 0 }

let prepare_poly ~tiered grids (s : Stencil.t) (poly : Polyform.t) =
  let f = Polyform.factorize poly in
  let native = Native.prepare grids s f in
  let l = Native.layout native and deltas = Native.deltas native in
  let out_mesh = Grids.find grids s.Stencil.output in
  let out_data = Mesh.data out_mesh in
  let out_reads = ref [] in
  let tap r =
    let i = Native.tap_index l r in
    let (g, _), _, group = l.Native.taps.(i) in
    let t = { a = Mesh.data (Grids.find grids g); g = group; d = deltas.(i) } in
    if t.a == out_data then out_reads := (t.g, t.d) :: !out_reads;
    t
  in
  let root, depth = compile_node ~tap ~depth:0 f in
  (* exactly one entry per group: a zero-read (constant) stencil has an
     empty group table *)
  let gmeta =
    Array.map
      (fun (g, scale) -> (Mesh.strides (Grids.find grids g), scale))
      l.Native.groups
  in
  { gmeta; root; depth; out_reads = !out_reads; out_data;
    out_strides = Mesh.strides out_mesh; out_map = s.Stencil.out_map;
    spare = Atomic.make no_block; native; tiered }

(* Take the spare block if its scratch rows hold [size] cells, else make
   one; under concurrent tiles the loser of the race makes its own. *)
let take_block prep ~size =
  let b = Atomic.exchange prep.spare no_block in
  if b != no_block && Float.Array.length b.bufs.(0) >= size then b
  else
    let ngroups = Array.length prep.gmeta in
    { bufs = Array.init prep.depth (fun _ -> Float.Array.create size);
      gpos = Array.make ngroups 0; ginc = Array.make ngroups 0;
      grow = Array.make ngroups 0; rows = 0; len = 0 }

(* Most cells evaluated before any of them is stored. *)
let max_block = 128

(* Block shape (rows, cells per row) for one tile.  A block reads all its
   inputs before it stores, so an in-place read that lands on a cell the
   same block writes earlier (dr rows and dc cells back) must not share a
   block with it: it limits blocks to dr rows, or to dc cells when dr = 0.
   An in-place read group that does not advance in lockstep with the
   output gets single cells — exactly sequential semantics.  Stride-2
   colourings (GSRB) never read a cell their own sweep writes and keep
   full blocks. *)
let block_shape prep ~gbase ~ginc ~out_base ~out_inc ~nrows ~ncells =
  let n = Array.length out_inc in
  let ci = out_inc.(n - 1) and ri = if n > 1 then out_inc.(n - 2) else 0 in
  let diffs = List.map (fun (g, d) -> gbase.(g) + d - out_base) prep.out_reads in
  if not (List.for_all (fun (g, _) -> Ivec.equal ginc.(g) out_inc) prep.out_reads)
  then (1, 1)
  else
    (* same row: the target is dc = -diff/ci cells back (ci > 0: output
       scales and lattice strides are positive) *)
    let cells =
      List.fold_left
        (fun cells diff ->
          if diff mod ci = 0 && -diff / ci >= 1 then min cells (-diff / ci)
          else cells)
        (max 1 (min ncells max_block))
        diffs
    in
    (* dr rows back: some dc with |dc| < cells and diff = -(dr·ri + dc·ci) *)
    let hits diff dr =
      let rem = -diff - (dr * ri) in
      rem mod ci = 0 && abs (rem / ci) < cells
    in
    let rows =
      if cells < ncells then 1
      else
        List.fold_left
          (fun rows diff ->
            let rec first dr =
              if dr >= rows then rows else if hits diff dr then dr else first (dr + 1)
            in
            first 1)
          (max 1 (min nrows (max_block / ncells)))
          diffs
    in
    (rows, cells)

(* Instantiate one tile of a prepared polynomial stencil: all geometry is
   computed here, once; the returned thunk only runs the loops.  The thunk
   owns its counters and borrows scratch for the duration of a run, so
   distinct tiles may run concurrently while one tile's thunk is reused
   across kernel invocations for free. *)
let instantiate_poly prep rect =
  let cnt = Domain.counts rect in
  let n = Ivec.dims cnt in
  let ngroups = Array.length prep.gmeta in
  let ginc =
    Array.map
      (fun (strides, scale) ->
        Array.init n (fun i -> strides.(i) * scale.(i) * rect.Domain.rstride.(i)))
      prep.gmeta
  in
  let gbase =
    Array.map
      (fun (strides, scale) ->
        let b = ref 0 in
        for i = 0 to n - 1 do
          b := !b + (strides.(i) * scale.(i) * rect.Domain.rlo.(i))
        done;
        !b)
      prep.gmeta
  in
  let out_base = Ivec.dot prep.out_strides (Affine.apply prep.out_map rect.Domain.rlo) in
  let out_inc =
    Array.init n (fun i ->
        prep.out_strides.(i) * prep.out_map.Affine.scale.(i)
        * rect.Domain.rstride.(i))
  in
  (* axes: [0, mid) are walked one plane at a time, [mid] row by row in
     blocks, [n-1] is the inner axis (1-D: a single row) *)
  let inner = n - 1 in
  let mid = max 0 (n - 2) in
  let ncells = cnt.(inner) and nrows = if n > 1 then cnt.(mid) else 1 in
  let along axis inc = if n > 1 then inc.(axis) else 0 in
  let rows, cells =
    block_shape prep ~gbase ~ginc ~out_base ~out_inc ~nrows ~ncells
  in
  let pbase = Array.make ngroups 0 in
  let oinc = out_inc.(inner) and orow = along mid out_inc in
  let root = prep.root and out_data = prep.out_data in
  let planes = ref 1 in
  for i = 0 to mid - 1 do
    planes := !planes * cnt.(i)
  done;
  let planes = !planes in
  let oidx = Array.make (max mid 1) 0 in
  let rec bump i =
    if i >= 0 then begin
      oidx.(i) <- oidx.(i) + 1;
      if oidx.(i) >= cnt.(i) then begin
        oidx.(i) <- 0;
        bump (i - 1)
      end
    end
  in
  let row () =
    let b = take_block prep ~size:(rows * cells) in
    let res = b.bufs.(0) in
    for g = 0 to ngroups - 1 do
      b.ginc.(g) <- ginc.(g).(inner);
      b.grow.(g) <- along mid ginc.(g)
    done;
    for i = 0 to Array.length oidx - 1 do
      oidx.(i) <- 0
    done;
    for _plane = 0 to planes - 1 do
      for g = 0 to ngroups - 1 do
        let flat = ref gbase.(g) and inc = ginc.(g) in
        for i = 0 to mid - 1 do
          flat := !flat + (oidx.(i) * inc.(i))
        done;
        pbase.(g) <- !flat
      done;
      let oplane = ref out_base in
      for i = 0 to mid - 1 do
        oplane := !oplane + (oidx.(i) * out_inc.(i))
      done;
      let r0 = ref 0 in
      while !r0 < nrows do
        b.rows <- min rows (nrows - !r0);
        let c0 = ref 0 in
        while !c0 < ncells do
          let len = min cells (ncells - !c0) in
          b.len <- len;
          for g = 0 to ngroups - 1 do
            Array.unsafe_set b.gpos g (pbase.(g) + (!r0 * b.grow.(g)) + (!c0 * b.ginc.(g)))
          done;
          root b;
          for r = 0 to b.rows - 1 do
            store_row out_data
              (!oplane + ((!r0 + r) * orow) + (!c0 * oinc))
              oinc res (r * len) (((r + 1) * len) - 1)
          done;
          c0 := !c0 + len
        done;
        r0 := !r0 + b.rows
      done;
      bump (mid - 1)
    done;
    Atomic.set prep.spare b
  in
  if not prep.tiered then row
  else
    let geo =
      Native.geometry prep.native ~counts:cnt ~out_base ~out_inc ~gbase ~ginc
    in
    let cells = Ivec.product cnt in
    fun () -> Native.run prep.native geo ~cells row

let nop () = ()

let prepare ~tiered grids ~params (s : Stencil.t) =
  match Polyform.of_expr ~params s.Stencil.expr with
  | Some poly ->
      let prep = prepare_poly ~tiered grids s poly in
      fun rect ->
        if Domain.is_empty rect then nop else instantiate_poly prep rect
  | None ->
      fun rect () ->
        if not (Domain.is_empty rect) then
          run_rect_closure grids ~params s rect

let prepare_compiled = prepare ~tiered:true
let prepare_row = prepare ~tiered:false

let run_rect_compiled grids ~params s rect =
  (prepare_compiled grids ~params s) rect ()

let validate_stencil grids ~shape (s : Stencil.t) =
  let n = Ivec.dims shape in
  List.iter
    (fun g ->
      let mesh = Grids.find grids g in
      if Mesh.dims mesh <> n then
        invalid_arg
          (Printf.sprintf
             "stencil %s: grid %S has rank %d but iteration shape has rank %d"
             s.Stencil.label g (Mesh.dims mesh) n))
    (Stencil.grids s);
  let grid_shape g = Mesh.shape (Grids.find grids g) in
  match Sf_analysis.Footprint.check_in_bounds ~shape ~grid_shape s with
  | Ok () -> ()
  | Error msg -> invalid_arg msg
