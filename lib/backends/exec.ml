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
(* The row evaluator.  Reads are grouped by (grid, scale); one flat     *)
(* counter per group tracks Σ strideᵢ·scaleᵢ·xᵢ, and each read is a     *)
(* constant delta off its group's counter.  The folded expression tree  *)
(* compiles, once per kernel invocation, into one pass per operator     *)
(* node, each filling a block of inner-axis rows of a scratch row:      *)
(* floats stay in registers inside a pass and only cross a closure      *)
(* boundary in a floatarray, so nothing is boxed per cell — the         *)
(* strength-reduced loops the emitted C would have.                     *)
(* ------------------------------------------------------------------- *)

(* The block a pass fills: [rows] consecutive inner-axis rows of [len]
   cells, results stored row-major in the scratch rows.  A running tile
   borrows one from its stencil's [prep.spare] and sets its geometry. *)
type block = {
  bufs : floatarray array;  (* scratch rows, one per live operator result *)
  gpos : int array;  (* read group g's flat position at the first cell *)
  ginc : int array;  (* its step to the next cell of a row *)
  grow : int array;  (* and to the next row of the block *)
  mutable rows : int;
  mutable len : int;
}

type pass = block -> unit

(* A read resolved against the grids: data array, group, constant delta. *)
type tap = { a : floatarray; g : int; d : int }

(* An operand of a pass: a read, a scratch row, or a constant. *)
type src =
  | Tap of tap
  | Row of int  (* scratch row k: position r·len, step 1 *)
  | Val of floatarray  (* a folded constant: one cell, step 0 *)

let get = Float.Array.unsafe_get
let set = Float.Array.unsafe_set

let[@inline] arr b = function
  | Tap t -> t.a
  | Row k -> Array.unsafe_get b.bufs k
  | Val v -> v

(* position at the block's first cell, step to the next cell of a row,
   and to the same cell of the next row *)
let[@inline] pos b = function
  | Tap t -> Array.unsafe_get b.gpos t.g + t.d
  | Row _ | Val _ -> 0

let[@inline] inc b = function
  | Tap t -> Array.unsafe_get b.ginc t.g
  | Row _ -> 1
  | Val _ -> 0

let[@inline] rinc b = function
  | Tap t -> Array.unsafe_get b.grow t.g
  | Row _ -> b.len
  | Val _ -> 0

(* Block kernels: every row of a block into one scratch row, cell c of
   row r reading each operand at [p + r·rp + c·ip].  Every operand is an
   argument, so the loops keep all of them in registers; the binary ones
   are unrolled four cells deep, which their short bodies need to
   amortise the loop overhead. *)
let neg_block dst len rows x px ix rx =
  for r = 0 to rows - 1 do
    let px = ref (px + (r * rx)) in
    for c = r * len to ((r + 1) * len) - 1 do
      set dst c (-.get x !px);
      px := !px + ix
    done
  done

let add_block dst len rows x px ix rx y py iy ry =
  for r = 0 to rows - 1 do
    let c1 = ((r + 1) * len) - 1 in
    let c = ref (r * len) and px = ref (px + (r * rx)) and py = ref (py + (r * ry)) in
    while !c + 3 <= c1 do
      let i = !c and p = !px and q = !py in
      set dst i (get x p +. get y q);
      set dst (i + 1) (get x (p + ix) +. get y (q + iy));
      set dst (i + 2) (get x (p + (2 * ix)) +. get y (q + (2 * iy)));
      set dst (i + 3) (get x (p + (3 * ix)) +. get y (q + (3 * iy)));
      c := i + 4;
      px := p + (4 * ix);
      py := q + (4 * iy)
    done;
    for i = !c to c1 do
      set dst i (get x !px +. get y !py);
      px := !px + ix;
      py := !py + iy
    done
  done

let sub_block dst len rows x px ix rx y py iy ry =
  for r = 0 to rows - 1 do
    let c1 = ((r + 1) * len) - 1 in
    let c = ref (r * len) and px = ref (px + (r * rx)) and py = ref (py + (r * ry)) in
    while !c + 3 <= c1 do
      let i = !c and p = !px and q = !py in
      set dst i (get x p -. get y q);
      set dst (i + 1) (get x (p + ix) -. get y (q + iy));
      set dst (i + 2) (get x (p + (2 * ix)) -. get y (q + (2 * iy)));
      set dst (i + 3) (get x (p + (3 * ix)) -. get y (q + (3 * iy)));
      c := i + 4;
      px := p + (4 * ix);
      py := q + (4 * iy)
    done;
    for i = !c to c1 do
      set dst i (get x !px -. get y !py);
      px := !px + ix;
      py := !py + iy
    done
  done

let mul_block dst len rows x px ix rx y py iy ry =
  for r = 0 to rows - 1 do
    let c1 = ((r + 1) * len) - 1 in
    let c = ref (r * len) and px = ref (px + (r * rx)) and py = ref (py + (r * ry)) in
    while !c + 3 <= c1 do
      let i = !c and p = !px and q = !py in
      set dst i (get x p *. get y q);
      set dst (i + 1) (get x (p + ix) *. get y (q + iy));
      set dst (i + 2) (get x (p + (2 * ix)) *. get y (q + (2 * iy)));
      set dst (i + 3) (get x (p + (3 * ix)) *. get y (q + (3 * iy)));
      c := i + 4;
      px := p + (4 * ix);
      py := q + (4 * iy)
    done;
    for i = !c to c1 do
      set dst i (get x !px *. get y !py);
      px := !px + ix;
      py := !py + iy
    done
  done

let div_block dst len rows x px ix rx y py iy ry =
  for r = 0 to rows - 1 do
    let c1 = ((r + 1) * len) - 1 in
    let c = ref (r * len) and px = ref (px + (r * rx)) and py = ref (py + (r * ry)) in
    while !c + 3 <= c1 do
      let i = !c and p = !px and q = !py in
      set dst i (get x p /. get y q);
      set dst (i + 1) (get x (p + ix) /. get y (q + iy));
      set dst (i + 2) (get x (p + (2 * ix)) /. get y (q + (2 * iy)));
      set dst (i + 3) (get x (p + (3 * ix)) /. get y (q + (3 * iy)));
      c := i + 4;
      px := p + (4 * ix);
      py := q + (4 * iy)
    done;
    for i = !c to c1 do
      set dst i (get x !px /. get y !py);
      px := !px + ix;
      py := !py + iy
    done
  done

(* [out[o], out[o + i], … = x[px], x[px + ix], …], [n] cells: a finished
   row to the output *)
let store_row out o i n x px ix =
  let o = ref o and px = ref px in
  for _ = 1 to n do
    set out !o (get x !px);
    o := !o + i;
    px := !px + ix
  done

(* Passes: one block kernel into scratch row [k]. *)
let unary kernel k x : pass =
 fun b -> kernel (Array.unsafe_get b.bufs k) b.len b.rows (arr b x) (pos b x) (inc b x) (rinc b x)

let binary kernel k x y : pass =
 fun b ->
  kernel (Array.unsafe_get b.bufs k) b.len b.rows (arr b x) (pos b x) (inc b x) (rinc b x)
    (arr b y) (pos b y) (inc b y) (rinc b y)

(* Compile a folded tree whose value goes to scratch row [k] when it is
   an operator node: its passes in evaluation order (operands left to
   right, as [Expr.eval]), its operand, and the scratch rows it needs.  A
   left operand that is itself an operator holds row [k] until its parent
   runs, so the right one is computed in row [k + 1]. *)
let rec compile ~tap ~k (e : Expr.t) : pass list * src * int =
  let binop kernel a b =
    let pa, xa, na = compile ~tap ~k a in
    let kb = match xa with Row _ -> k + 1 | Tap _ | Val _ -> k in
    let pb, xb, nb = compile ~tap ~k:kb b in
    (pa @ pb @ [ binary kernel k xa xb ], Row k, max (k + 1) (max na nb))
  in
  match e with
  | Expr.Const c -> ([], Val (Float.Array.make 1 c), 0)
  | Expr.Read (g, m) -> ([], Tap (tap (g, m)), 0)
  | Expr.Param p -> invalid_arg ("Exec: parameter not folded: " ^ p)
  | Expr.Neg a ->
      let pa, xa, na = compile ~tap ~k a in
      (pa @ [ unary neg_block k xa ], Row k, max (k + 1) na)
  | Expr.Add (a, b) -> binop add_block a b
  | Expr.Sub (a, b) -> binop sub_block a b
  | Expr.Mul (a, b) -> binop mul_block a b
  | Expr.Div (a, b) -> binop div_block a b

type prep = {
  gmeta : (int array (* mesh strides *) * int array (* scale *)) array;
  passes : pass array;  (* the operator nodes, in evaluation order *)
  result : src;  (* the root's value *)
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

let prepare_tree ~tiered grids ~params (s : Stencil.t) =
  let e = Expr.fold ~params s.Stencil.expr in
  let native = Native.prepare grids s e in
  let l = Native.layout native and deltas = Native.deltas native in
  let out_mesh = Grids.find grids s.Stencil.output in
  let out_data = Mesh.data out_mesh in
  let taps =
    Array.mapi
      (fun i ((g, _), _, group) ->
        { a = Mesh.data (Grids.find grids g); g = group; d = deltas.(i) })
      l.Native.taps
  in
  let passes, result, depth =
    compile ~tap:(fun r -> taps.(Native.tap_index l r)) ~k:0 e
  in
  (* exactly one entry per group: a zero-read (constant) stencil has an
     empty group table *)
  let gmeta =
    Array.map
      (fun (g, scale) -> (Mesh.strides (Grids.find grids g), scale))
      l.Native.groups
  in
  { gmeta; passes = Array.of_list passes; result; depth = max 1 depth;
    out_reads =
      List.filter_map
        (fun t -> if t.a == out_data then Some (t.g, t.d) else None)
        (Array.to_list taps);
    out_data; out_strides = Mesh.strides out_mesh; out_map = s.Stencil.out_map;
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

(* Instantiate one tile of a prepared stencil: all geometry is
   computed here, once; the returned thunk only runs the loops.  The thunk
   owns its counters and borrows scratch for the duration of a run, so
   distinct tiles may run concurrently while one tile's thunk is reused
   across kernel invocations for free. *)
let instantiate prep rect =
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
  let passes = prep.passes and result = prep.result and out_data = prep.out_data in
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
          for i = 0 to Array.length passes - 1 do
            (Array.unsafe_get passes i) b
          done;
          let x = arr b result and px = pos b result and ix = inc b result
          and rx = rinc b result in
          for r = 0 to b.rows - 1 do
            store_row out_data
              (!oplane + ((!r0 + r) * orow) + (!c0 * oinc))
              oinc len x (px + (r * rx)) ix
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
  let prep = prepare_tree ~tiered grids ~params s in
  fun rect -> if Domain.is_empty rect then nop else instantiate prep rect

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
